"""Seeded synthetic tasks with self-checking constructions.

Two tasks, both emitting (image, question, one-char answer) samples.

Complementary task: each 32x32 image is a coarse shape (one of 4) drawn
as 2x2-block-constant regions, plus a fine texture (one of 4) tiled as
zero-sum integer deltas inside every 2x2 block. The class is the
(shape, texture) pair, 16 in total. Because shapes never vary within a
block and textures never change a block's sum, a block-mean view of the
image is bit-identical across textures and a block-residual view is
bit-identical across shapes. A branch seeing only the mean view
therefore upper-bounds at the shape marginal (1/4 on balanced data),
and a branch seeing only the residual view at the texture marginal
(1/4); only both views together determine the class. The generator
re-verifies this blindness on every call using the encoder input
filters themselves.

Tile-detail task: a 96x64-style image is a grid of cells, one per tile
position, each holding one small glyph from an equal-popcount set. The
question names a cell ("tile r0c2?") and the answer is that cell's
glyph class. Glyphs are 7x7 with identical pixel counts and a color
drawn independently of class, so a whole-image thumbnail retains
neither shape (smeared below glyph scale) nor any brightness or color
cue; resolving the class requires the full-resolution tile.
"""

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .encoders import EncoderConfig, highpass_pixels, lowpass_pixels
from .errors import ConfigError, ContractError, reject
from .tiling import image_from_u8, image_to_u8, read_ppm, write_ppm

TASK_KINDS = ("tile-detail", "complementary")
ANSWER_ALPHABET = "abcdefghijklmnop"


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    image_size: tuple
    tile_size: int
    n_classes: int
    n_train: int
    n_eval: int
    seed: int

    def __post_init__(self):
        problems = []
        if self.kind not in TASK_KINDS:
            problems.append(f"kind: must be one of {TASK_KINDS}, "
                            f"got {self.kind!r}")
        if not (len(self.image_size) == 2
                and all(isinstance(v, int) and not isinstance(v, bool)
                        and v > 0 for v in self.image_size)):
            problems.append("image_size: expected [width, height] "
                            "positive integers")
        if self.tile_size <= 0:
            problems.append("tile_size: must be positive")
        for key in ("n_train", "n_eval"):
            if getattr(self, key) < 0:
                problems.append(f"{key}: must be nonnegative")
        if self.n_classes < 2:
            problems.append("n_classes: need at least 2 classes")
        if not problems:
            geometry = (_complementary_geometry
                        if self.kind == "complementary"
                        else _tile_detail_geometry)
            problems = geometry(self)
        reject(problems)


@dataclass
class Sample:
    images: list
    question: str
    answer: str


@dataclass
class TaskData:
    train: list
    eval: list


def _balanced_ids(n: int, n_classes: int, rng) -> np.ndarray:
    """Round-robin class ids, shuffled; counts differ by at most one."""
    ids = np.arange(n) % n_classes
    rng.shuffle(ids)
    return ids


# complementary task

CELL = 2
SHAPE_CANVAS = 12
# (jx, jy) block offsets verify_complementary_blindness renders shapes at
BLINDNESS_JITTERS = ((0, 0), (2, 1), (4, 4))
TEXTURE_DELTA = 40
COMPLEMENTARY_QUESTION = "class?"
N_SHAPES = 4
N_TEXTURES = 4


def _shape_masks() -> np.ndarray:
    """Four coarse 12x12 block masks: solid, ring, plus, diagonal X."""
    masks = np.zeros((N_SHAPES, SHAPE_CANVAS, SHAPE_CANVAS), dtype=bool)
    masks[0, 2:10, 2:10] = True
    masks[1, 2:10, 2:10] = True
    masks[1, 4:8, 4:8] = False
    masks[2, 5:7, 1:11] = True
    masks[2, 1:11, 5:7] = True
    ii, jj = np.meshgrid(np.arange(SHAPE_CANVAS), np.arange(SHAPE_CANVAS),
                         indexing="ij")
    masks[3] = (np.abs(ii - jj) <= 1) | (np.abs(ii + jj - 11) <= 1)
    return masks


def _texture_cells() -> np.ndarray:
    """Four distinct zero-sum 2x2 integer delta patterns."""
    d = TEXTURE_DELTA
    return np.array([
        [[+d, -d], [-d, +d]],
        [[-d, +d], [+d, -d]],
        [[+d, +d], [-d, -d]],
        [[+d, -d], [+d, -d]],
    ], dtype=np.int64)


SHAPE_MASKS = _shape_masks()
TEXTURE_CELLS = _texture_cells()


def _complementary_geometry(spec: TaskSpec) -> list:
    """Problems with a complementary spec's image size and classes."""
    w, h = spec.image_size
    problems = []
    if w != h:
        problems.append(
            f"image_size: complementary images are square, got {w}x{h}")
    elif w % CELL != 0:
        problems.append(
            f"image_size: side {w} not divisible by cell {CELL}")
    elif w // CELL < SHAPE_CANVAS + max(map(max, BLINDNESS_JITTERS)):
        problems.append(
            f"image_size: image holds {w // CELL} blocks per side; "
            f"shapes need {SHAPE_CANVAS}, and the blindness check places "
            f"them up to {max(map(max, BLINDNESS_JITTERS))} blocks in")
    if spec.n_classes != N_SHAPES * N_TEXTURES:
        problems.append(
            f"n_classes: complementary task has {N_SHAPES * N_TEXTURES} "
            f"classes, config says {spec.n_classes}")
    return problems


def render_complementary(side: int, shape_id: int, texture_id: int,
                         jx: int, jy: int, bg: int, fg: int) -> np.ndarray:
    """One gray u8 image, H x W x 3; all construction stays on the
    integer lattice. The three channels are one plane broadcast (a
    read-only view with channel stride 0), so the other two are never
    built, and image_from_u8 keeps the one plane."""
    blocks = side // CELL
    base = np.full((blocks, blocks), bg, dtype=np.int64)
    mask = SHAPE_MASKS[shape_id]
    region = base[jy:jy + SHAPE_CANVAS, jx:jx + SHAPE_CANVAS]
    region[mask] = fg
    # pixel (CELL*i + a, CELL*j + b) is block (i, j)'s level plus the
    # texture cell's delta (a, b)
    cell = TEXTURE_CELLS[texture_id]
    out = (base[:, None, :, None] + cell[None, :, None, :]).reshape(
        blocks * CELL, blocks * CELL)
    if out.min() < 0 or out.max() > 255:
        raise ContractError("complementary rendering left the u8 range")
    return np.broadcast_to(out.astype(np.uint8)[:, :, None], (*out.shape, 3))


def verify_complementary_blindness(side: int = 32) -> dict:
    """Prove the construction's two blindness claims bit-exactly.

    Uses the actual encoder input filters: the block-mean view of an
    image must not depend on texture, and the block-residual view must
    not depend on shape, jitter, or levels. Returns the implied single
    branch accuracy bounds. Raises if the construction is broken.
    """
    levels = [(62, 172), (70, 180), (78, 188)]
    for s in range(N_SHAPES):
        for (jx, jy), (bg, fg) in zip(BLINDNESS_JITTERS, levels):
            views = []
            for t in range(N_TEXTURES):
                img = render_complementary(side, s, t, jx, jy, bg, fg)
                px = image_from_u8(img).pixels
                views.append(lowpass_pixels(px, CELL).tobytes())
            if len(set(views)) != 1:
                raise ContractError(
                    f"block-mean view leaks texture for shape {s}")

    for t in range(N_TEXTURES):
        views = []
        for s in range(N_SHAPES):
            for (jx, jy), (bg, fg) in zip(BLINDNESS_JITTERS, levels):
                img = render_complementary(side, s, t, jx, jy, bg, fg)
                px = image_from_u8(img).pixels
                views.append(highpass_pixels(px, CELL).tobytes())
        if len(set(views)) != 1:
            raise ContractError(
                f"block-residual view leaks shape for texture {t}")

    return {"mean_view_bound": 1.0 / N_TEXTURES,
            "residual_view_bound": 1.0 / N_SHAPES}


def _complementary_split(spec: TaskSpec, n: int, rng) -> list:
    side = spec.image_size[0]
    blocks = side // CELL
    jmax = blocks - SHAPE_CANVAS
    ids = _balanced_ids(n, spec.n_classes, rng)
    out = []
    for cid in ids:
        shape_id, texture_id = divmod(int(cid), N_TEXTURES)
        jx = int(rng.integers(0, jmax + 1))
        jy = int(rng.integers(0, jmax + 1))
        bg = 70 + 8 * int(rng.integers(-1, 2))
        fg = 180 + 8 * int(rng.integers(-1, 2))
        img = render_complementary(side, shape_id, texture_id, jx, jy,
                                   bg, fg)
        out.append(Sample(images=[image_from_u8(img)],
                          question=COMPLEMENTARY_QUESTION,
                          answer=ANSWER_ALPHABET[int(cid)]))
    return out


def generate_complementary(spec: TaskSpec) -> TaskData:
    if spec.kind != "complementary":
        raise ConfigError(f"spec kind is {spec.kind!r}")
    verify_complementary_blindness(spec.image_size[0])
    r_train, r_eval = [np.random.default_rng(c) for c in
                       np.random.SeedSequence(spec.seed).spawn(2)]
    return TaskData(train=_complementary_split(spec, spec.n_train, r_train),
                    eval=_complementary_split(spec, spec.n_eval, r_eval))


def check_frequency_separation(cfg_a: EncoderConfig,
                               cfg_b: EncoderConfig) -> None:
    """Reject encoder pairs that cannot split the task's frequencies.

    Branch A must be the coarse branch (block-mean input, patches no
    finer than the texture cell) and branch B the fine branch (block
    residual input, patches able to resolve inside a cell). Problems
    are keyed by the model's encoder_a and encoder_b sections.
    """
    problems = []
    if cfg_a.input_filter != "lowpass":
        problems.append("encoder_a.input_filter: branch A must use the "
                        "lowpass input filter")
    if cfg_b.input_filter != "highpass":
        problems.append("encoder_b.input_filter: branch B must use the "
                        "highpass input filter")
    for key, cfg in (("encoder_a", cfg_a), ("encoder_b", cfg_b)):
        if cfg.filter_block != CELL:
            problems.append(f"{key}.filter_block: must equal the texture "
                            f"cell ({CELL})")
    if cfg_a.patch_size % CELL != 0:
        problems.append("encoder_a.patch_size: must be a multiple of the "
                        "texture cell")
    if cfg_a.patch_size <= cfg_b.patch_size:
        problems.append("encoder_a.patch_size: branch A patches must be "
                        "coarser than branch B")
    reject(problems)


def complementary_oracle(sample: Sample) -> str:
    """Full-information classifier; exact by construction."""
    img = image_to_u8(sample.images[0]).astype(np.int64)[:, :, 0]
    side = img.shape[0]
    blocks = side // CELL

    cellview = img.reshape(blocks, CELL, blocks, CELL)
    means = cellview.mean(axis=(1, 3))
    delta = (cellview - means[:, None, :, None]).astype(np.int64)
    first = delta[0, :, 0, :]
    texture_id = None
    for t, cell in enumerate(TEXTURE_CELLS):
        if np.array_equal(first, cell):
            texture_id = t
            break
    if texture_id is None:
        raise ContractError("no texture matches the block residual")

    fg_mask = means > 125
    ys, xs = np.nonzero(fg_mask)
    if len(ys) == 0:
        raise ContractError("no foreground blocks found")
    shape_id = None
    for s, mask in enumerate(SHAPE_MASKS):
        mys, mxs = np.nonzero(mask)
        jy = ys.min() - mys.min()
        jx = xs.min() - mxs.min()
        if jy < 0 or jx < 0:
            continue
        if jy + SHAPE_CANVAS > blocks or jx + SHAPE_CANVAS > blocks:
            continue
        placed = np.zeros_like(fg_mask)
        placed[jy:jy + SHAPE_CANVAS, jx:jx + SHAPE_CANVAS] = mask
        if np.array_equal(placed, fg_mask):
            shape_id = s
            break
    if shape_id is None:
        raise ContractError("no shape matches the block means")
    return ANSWER_ALPHABET[shape_id * N_TEXTURES + texture_id]


# tile-detail task

GLYPH_SIZE = 7
GLYPH_POPCOUNT = 13
GLYPH_MARGIN = 2
BG_BASE = 25
BG_JITTER = 8
PALETTE = ((230, 230, 230), (230, 200, 160), (170, 220, 230))

_GLYPH_ART = [
    ["...#...", "...#...", "...#...", "#######", "...#...", "...#...",
     "...#..."],
    ["#.....#", ".#...#.", "..#.#..", "...#...", "..#.#..", ".#...#.",
     "#.....#"],
    [".......", "..###..", ".#...#.", ".#.#.#.", ".#...#.", "..###..",
     "......."],
    ["#######", "...#...", "...#...", "...#...", "...#...", "...#...",
     "...#..."],
    ["#......", "#......", "#......", "#......", "#......", "#......",
     "#######"],
    [".......", ".#####.", "....#..", "...#...", "..#....", ".#####.",
     "......."],
    [".#...#.", ".#...#.", ".#####.", ".#...#.", ".#...#.", ".......",
     "......."],
    ["...#...", "..#.#..", ".#...#.", "#..#..#", ".#...#.", "..#.#..",
     "...#..."],
]


def _glyph_masks() -> np.ndarray:
    masks = np.array([[[ch == "#" for ch in row] for row in art]
                      for art in _GLYPH_ART], dtype=bool)
    counts = masks.sum(axis=(1, 2))
    if not np.all(counts == GLYPH_POPCOUNT):
        raise ContractError(f"glyph popcounts differ: {counts.tolist()}")
    return masks


GLYPH_MASKS = _glyph_masks()
_QUESTION_RE = re.compile(r"^tile r(\d+)c(\d+)\?$")


def _tile_detail_geometry(spec: TaskSpec) -> list:
    """Problems with a tile-detail spec's image, tile and classes."""
    w, h = spec.image_size
    t = spec.tile_size
    problems = []
    if w % t != 0 or h % t != 0:
        problems.append(
            f"image_size: image {w}x{h} is not a whole number of "
            f"{t}px tiles")
    elif (w // t) * (h // t) < 2:
        problems.append("image_size: tile-detail needs more than one tile")
    if spec.n_classes > len(GLYPH_MASKS):
        problems.append(
            f"n_classes: at most {len(GLYPH_MASKS)} glyph classes, "
            f"config says {spec.n_classes}")
    if t < GLYPH_SIZE + 2 * GLYPH_MARGIN:
        problems.append(
            f"tile_size: tile {t}px cannot hold a {GLYPH_SIZE}px glyph "
            "with margin")
    return problems


def tile_detail_question(row: int, col: int) -> str:
    return f"tile r{row}c{col}?"


def _render_cell(canvas: np.ndarray, y0: int, x0: int, t: int,
                 glyph_id: int, rng) -> None:
    # the glyph sits centered in its cell: classes differ only in
    # pixel arrangement, and a stable position keeps the arrangement
    # learnable through a frozen random patch embedding
    bg = BG_BASE + int(rng.integers(0, BG_JITTER + 1))
    canvas[y0:y0 + t, x0:x0 + t, :] = bg
    oy = (t - GLYPH_SIZE) // 2
    ox = (t - GLYPH_SIZE) // 2
    color = PALETTE[int(rng.integers(0, len(PALETTE)))]
    mask = GLYPH_MASKS[glyph_id]
    block = canvas[y0 + oy:y0 + oy + GLYPH_SIZE,
                   x0 + ox:x0 + ox + GLYPH_SIZE, :]
    for c in range(3):
        chan = block[:, :, c]
        chan[mask] = color[c]


def _tile_detail_split(spec: TaskSpec, n: int, rng) -> list:
    w, h = spec.image_size
    t = spec.tile_size
    cols, rows = w // t, h // t
    ids = _balanced_ids(n, spec.n_classes, rng)
    out = []
    for cid in ids:
        q_row = int(rng.integers(0, rows))
        q_col = int(rng.integers(0, cols))
        canvas = np.zeros((h, w, 3), dtype=np.uint8)
        for r in range(rows):
            for c in range(cols):
                if (r, c) == (q_row, q_col):
                    glyph = int(cid)
                else:
                    glyph = int(rng.integers(0, spec.n_classes))
                _render_cell(canvas, r * t, c * t, t, glyph, rng)
        out.append(Sample(images=[image_from_u8(canvas)],
                          question=tile_detail_question(q_row, q_col),
                          answer=ANSWER_ALPHABET[int(cid)]))
    return out


def generate_tile_detail(spec: TaskSpec) -> TaskData:
    if spec.kind != "tile-detail":
        raise ConfigError(f"spec kind is {spec.kind!r}")
    r_train, r_eval = [np.random.default_rng(c) for c in
                       np.random.SeedSequence(spec.seed).spawn(2)]
    return TaskData(train=_tile_detail_split(spec, spec.n_train, r_train),
                    eval=_tile_detail_split(spec, spec.n_eval, r_eval))


def generate(spec: TaskSpec) -> TaskData:
    if spec.kind == "complementary":
        return generate_complementary(spec)
    return generate_tile_detail(spec)


def _bbox_crop(mask: np.ndarray) -> np.ndarray:
    ys, xs = np.nonzero(mask)
    return mask[ys.min():ys.max() + 1, xs.min():xs.max() + 1]


def tile_detail_oracle(sample: Sample, spec: TaskSpec) -> str:
    """Nearest-template classifier on the queried full-res cell.

    Matching is done on bounding-box crops so glyphs whose art leaves
    the outer rows or columns empty still align with their templates.
    """
    m = _QUESTION_RE.match(sample.question)
    if m is None:
        raise ContractError(f"unparseable question {sample.question!r}")
    row, col = int(m.group(1)), int(m.group(2))
    t = spec.tile_size
    img = image_to_u8(sample.images[0])
    cell = img[row * t:(row + 1) * t, col * t:(col + 1) * t, :]
    lit = cell.max(axis=2) > 128
    if not lit.any():
        raise ContractError("queried cell holds no glyph pixels")
    crop = _bbox_crop(lit)
    for g, mask in enumerate(GLYPH_MASKS):
        want = _bbox_crop(mask)
        if crop.shape == want.shape and np.array_equal(crop, want):
            return ANSWER_ALPHABET[g]
    raise ContractError("no glyph template matches the cell")


# dataset files


def save_dataset(samples, out_dir, split: str) -> str:
    """Write PPM images plus a JSONL index; returns the index path."""
    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)
    index_path = os.path.join(out_dir, f"{split}.jsonl")
    with open(index_path, "w") as f:
        for i, s in enumerate(samples):
            rels = []
            for j, img in enumerate(s.images):
                rel = os.path.join("images", f"{split}_{i:05d}_{j}.ppm")
                write_ppm(os.path.join(out_dir, rel), img)
                rels.append(rel)
            f.write(json.dumps({"images": rels, "question": s.question,
                                "answer": s.answer}) + "\n")
    return index_path


def load_dataset(index_path) -> list:
    base = os.path.dirname(os.path.abspath(index_path))
    out = []
    with open(index_path) as f:
        for line in f:
            if not line.strip():
                continue
            d = json.loads(line)
            images = [read_ppm(os.path.join(base, rel))
                      for rel in d["images"]]
            out.append(Sample(images=images, question=d["question"],
                              answer=d["answer"]))
    return out
