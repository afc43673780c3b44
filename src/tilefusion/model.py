"""Full image-to-text pipeline: tiler, encoders, projectors, fusion, LM.

The Pipeline class owns every learnable parameter and wires one or two
vision branches into the language model. Images come in as raw [0, 1]
buffers; each is segmented into tiles, encoded per branch, compressed
by pixel unshuffle, projected into LM width, fused into a single visual
sequence, and spliced into the token stream around the prompt text.

The image side after the encoders runs once per batch, not once per
image: fuse_images stacks every image's post-unshuffle tokens along the
tile axis and calls project and the fusion function once, and
assemble_batch splices a whole step with one row gather
(assembly.splice_batch). Because fusion is tile-local, image k's rows
are the contiguous rows of its tiles. assemble, forward_sample and
answer splice one sample through the same builder (assembly.splice),
fusing each of its images on its own.

Frozen encoders cost one forward pass per distinct image per Pipeline:
frozen_tokens keeps each image's detached post-unshuffle tokens in
token_cache, keyed by the image's shape and the sha1 of its pixel
bytes, across every run_stage call. The cache holds only for the
encoder weights it was filled with; sync_token_cache, which run_stage
calls once, empties it when their digest has changed (restore, or any
write to a weight). answer never touches it.

Parameter names are namespaced by component ("encoderA.", "projectorB.",
"fusion.down", "lm.") so training stages can freeze whole subsystems by
prefix alone.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .assembly import (
    EOS_ID,
    AssembledSequence,
    ByteTokenizer,
    SequenceBatch,
    build_prompt,
    splice,
    splice_batch,
)
from .encoders import Encoder, EncoderConfig, TokenGrid, pixel_unshuffle
from .errors import ConfigError, ContractError
from .fusion import (
    FUSION_KINDS,
    Projector,
    VisualSequence,
    fuse_post_channel,
    fuse_post_interleave,
    fuse_pre,
    project,
)
from .lm import LanguageModel, LMConfig, LMOutput
from .tensor import Tensor, concat, outside_graph, slice_axis
from .tiling import ImageBuffer, segment
from .transformer import linear

ENCODER_CHOICES = ("A", "B", "A+B")


@dataclass
class PipelineConfig:
    """Everything needed to build one pipeline variant.

    encoders selects which vision branches exist. With a single branch
    the fusion kind is ignored; that branch's projector output is the
    visual sequence. tiling=False forces every image onto a single tile
    with no thumbnail, which is the no-tiling baseline.
    """

    encoder_a: EncoderConfig
    encoder_b: EncoderConfig
    lm: LMConfig
    tile_size: int = 32
    max_tiles: int = 6
    tiling: bool = True
    thumbnail: bool = True
    encoders: str = "A+B"
    fusion: str = "post-interleave"
    projector_hidden: int = 16

    def __post_init__(self):
        if self.encoders not in ENCODER_CHOICES:
            raise ConfigError(
                f"encoders must be one of {ENCODER_CHOICES}, got {self.encoders!r}")
        if self.fusion not in FUSION_KINDS:
            raise ConfigError(
                f"fusion must be one of {FUSION_KINDS}, got {self.fusion!r}")
        if self.tile_size <= 0 or self.max_tiles <= 0:
            raise ConfigError("tile_size and max_tiles must be positive")
        if self.projector_hidden <= 0:
            raise ConfigError("projector_hidden must be positive")
        for label, enc in (("A", self.encoder_a), ("B", self.encoder_b)):
            if self._uses(label) and enc.tile_side != self.tile_size:
                raise ConfigError(
                    f"encoder {label} expects {enc.tile_side}px tiles, "
                    f"pipeline produces {self.tile_size}px")
        if self.encoders == "A+B":
            wa = self.width_a
            wb = self.width_b
            if self.fusion == "pre-sequence" and wa != wb:
                raise ConfigError(
                    f"pre-sequence fusion needs equal post-unshuffle widths, "
                    f"got {wa} and {wb}")
            if self.fusion in ("post-channel", "pre-channel"):
                ta = self.encoder_a.tokens_per_tile
                tb = self.encoder_b.tokens_per_tile
                if ta != tb:
                    raise ConfigError(
                        f"{self.fusion} fusion needs equal tokens per tile, "
                        f"got {ta} and {tb}")

    def _uses(self, branch: str) -> bool:
        return branch in self.encoders.split("+")

    @property
    def width_a(self) -> int:
        """Channel width of branch A tokens after pixel unshuffle."""
        r = self.encoder_a.unshuffle_r
        return self.encoder_a.embed_dim * r * r

    @property
    def width_b(self) -> int:
        r = self.encoder_b.unshuffle_r
        return self.encoder_b.embed_dim * r * r

    def tokens_per_tile(self) -> int:
        """Fused visual tokens contributed by one tile."""
        ta = self.encoder_a.tokens_per_tile
        tb = self.encoder_b.tokens_per_tile
        if self.encoders == "A":
            return ta
        if self.encoders == "B":
            return tb
        if self.fusion in ("post-channel", "pre-channel"):
            return ta
        return ta + tb


class Pipeline:
    """Builds and runs one configured variant of the hybrid pipeline."""

    def __init__(self, cfg: PipelineConfig, seed: int = 0):
        self.cfg = cfg
        self.tokenizer = ByteTokenizer()
        # Fixed spawn order keeps any shared component bit-identical
        # across variants built from the same seed, so ablation cells
        # differ only where their configs differ.
        children = np.random.SeedSequence(seed).spawn(7)
        (seed_enc_a, seed_enc_b, seed_proj_a, seed_proj_b,
         seed_shared, seed_down, seed_lm) = children

        self.encoder_a = None
        self.encoder_b = None
        self.projector_a = None
        self.projector_b = None
        self.projector_shared = None
        self.down = None

        d = cfg.lm.d_lm
        hidden = cfg.projector_hidden
        use_a = cfg._uses("A")
        use_b = cfg._uses("B")
        if use_a:
            self.encoder_a = Encoder(cfg.encoder_a, "encoderA", seed_enc_a)
        if use_b:
            self.encoder_b = Encoder(cfg.encoder_b, "encoderB", seed_enc_b)

        both = use_a and use_b
        shared_fusion = both and cfg.fusion in ("pre-sequence", "pre-channel")
        if shared_fusion:
            if cfg.fusion == "pre-sequence":
                in_dim = cfg.width_a
            else:
                in_dim = cfg.width_a + cfg.width_b
            self.projector_shared = Projector(
                "projector_shared", in_dim, hidden, d, seed_shared)
        else:
            if use_a:
                self.projector_a = Projector(
                    "projectorA", cfg.width_a, hidden, d, seed_proj_a)
            if use_b:
                self.projector_b = Projector(
                    "projectorB", cfg.width_b, hidden, d, seed_proj_b)
        if both and cfg.fusion == "post-channel":
            rng = np.random.default_rng(seed_down)
            self.down = linear("fusion.down", rng, 2 * d, d)

        self.lm = LanguageModel(cfg.lm, seed_lm)

        # (image shape, pixel digest) -> detached branch tokens, valid
        # for the encoder weights whose digest is token_cache_weights
        self.token_cache = {}
        self.token_cache_weights = None

        # Start every parameter on the f32 lattice. Checkpoints store
        # f32, and saving quantizes live values in place; with lattice
        # init that quantization is a no-op for parameters a stage never
        # updated, so freeze guarantees stay byte-exact across saves.
        for p in self.parameters():
            p.data[...] = p.data.astype(np.float32)

    def parameters(self) -> list:
        out = []
        for enc in (self.encoder_a, self.encoder_b):
            if enc is not None:
                out.extend(enc.parameters())
        for proj in (self.projector_a, self.projector_b,
                     self.projector_shared):
            if proj is not None:
                out.extend(proj.parameters())
        if self.down is not None:
            out.append(self.down)
        out.extend(self.lm.parameters())
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in pipeline")
        return out

    def set_frozen(self, prefixes) -> None:
        """Freeze exactly the parameters whose names match a prefix.

        Everything else is thawed, so calls are idempotent and stage
        transitions never need an explicit unfreeze list.
        """
        prefixes = tuple(prefixes)
        for p in self.parameters():
            p.frozen = any(p.name.startswith(pre) for pre in prefixes)

    def segment_image(self, image: ImageBuffer):
        if self.cfg.tiling:
            return segment(image, self.cfg.tile_size, self.cfg.max_tiles,
                           thumbnail=self.cfg.thumbnail)
        return segment(image, self.cfg.tile_size, 1, thumbnail=False)

    def branch_tokens(self, image: ImageBuffer) -> dict:
        """Frozen half of encode_image: tile, encode, unshuffle.

        Returns each used branch's post-unshuffle TokenGrid, keyed "A"
        and "B". Nothing here is trained by any stage, so a trainer may
        compute this once per image and reuse it (frozen_tokens).
        """
        tiles = self.segment_image(image)
        out = {}
        for label, encoder in (("A", self.encoder_a), ("B", self.encoder_b)):
            if encoder is not None:
                out[label] = pixel_unshuffle(encoder.encode(tiles),
                                             encoder.cfg.unshuffle_r)
        return out

    def sync_token_cache(self) -> None:
        """Empty token_cache if the encoder weights changed since it was
        filled. Call it before frozen_tokens whenever the weights may
        have been written; run_stage calls it once per stage."""
        h = hashlib.sha1()
        for enc in (self.encoder_a, self.encoder_b):
            if enc is not None:
                for p in enc.parameters():
                    h.update(p.data.tobytes())
        digest = h.digest()
        if digest != self.token_cache_weights:
            self.token_cache.clear()
            self.token_cache_weights = digest

    def frozen_tokens(self, image: ImageBuffer) -> dict:
        """branch_tokens of image, detached, from token_cache.

        Only for frozen encoders: a miss encodes the image and keeps the
        result, a hit returns it without running any encoder.
        """
        pixels = np.ascontiguousarray(image.pixels)
        key = (pixels.shape, hashlib.sha1(pixels).digest())
        tokens = self.token_cache.get(key)
        if tokens is None:
            tokens = {label: TokenGrid(Tensor(grid.data.data))
                      for label, grid in self.branch_tokens(image).items()}
            self.token_cache[key] = tokens
        return tokens

    def fuse_images(self, tokens: list) -> VisualSequence:
        """Trainable half of encode_image, for many images in one pass.

        tokens holds branch_tokens output per image. Each branch's grids
        are stacked along the tile axis, image after image, then
        projected and fused once, so tile indices in the provenance run
        across the stack and image k's rows follow image k - 1's.
        """
        stacked = {}
        for label in tokens[0]:
            grids = [t[label].data for t in tokens]
            stacked[label] = TokenGrid(
                grids[0] if len(grids) == 1 else concat(grids, axis=0))
        cfg = self.cfg
        if cfg.encoders == "A":
            return project(self.projector_a, stacked["A"], "A")
        if cfg.encoders == "B":
            return project(self.projector_b, stacked["B"], "B")

        tok_a, tok_b = stacked["A"], stacked["B"]
        if cfg.fusion == "post-interleave":
            seq_a = project(self.projector_a, tok_a, "A")
            seq_b = project(self.projector_b, tok_b, "B")
            return fuse_post_interleave(seq_a, seq_b)
        if cfg.fusion == "post-channel":
            seq_a = project(self.projector_a, tok_a, "A")
            seq_b = project(self.projector_b, tok_b, "B")
            return fuse_post_channel(seq_a, seq_b, self.down)
        return fuse_pre(tok_a, tok_b, cfg.fusion, self.projector_shared)

    def encode_image(self, image: ImageBuffer) -> VisualSequence:
        """Raw image to one fused visual sequence in LM width."""
        return self.fuse_images([self.branch_tokens(image)])

    def _text_ids(self, n_images: int, question: str, answer: str):
        return (self.tokenizer.encode(build_prompt(n_images, question)),
                self.tokenizer.encode(answer))

    def assemble(self, images, question: str, answer: str,
                 tokens=None) -> AssembledSequence:
        """Splice one sample. tokens, when given, holds branch_tokens
        output per image and replaces the encoder pass."""
        if tokens is None:
            tokens = [self.branch_tokens(img) for img in images]
        # splice takes one sequence per image; every shipped task has one
        # image per sample, so this is one fused pass
        visuals = [self.fuse_images([t]) for t in tokens]
        prompt_ids, answer_ids = self._text_ids(len(images), question, answer)
        return splice(prompt_ids, answer_ids, visuals, self.lm.embed,
                      self.cfg.lm.context_limit)

    def assemble_batch(self, samples, tokens=None) -> SequenceBatch:
        """Splice samples (each with .images, .question, .answer) into one
        right-padded batch: one fuse_images pass over all their images
        and one row gather. tokens, when given, holds branch_tokens output
        per image per sample and replaces the encoder pass."""
        if tokens is None:
            tokens = [[self.branch_tokens(img) for img in s.images]
                      for s in samples]
        flat = [t for per_sample in tokens for t in per_sample]
        rows = (self.fuse_images(flat).embeddings if flat
                else Tensor(np.zeros((0, self.cfg.lm.d_lm))))
        texts = [self._text_ids(len(s.images), s.question, s.answer)
                 for s in samples]
        # an image's fused rows: its tiles times fused tokens per tile
        per_tile = self.cfg.tokens_per_tile()
        counts = [[next(iter(t.values())).n_tiles * per_tile
                   for t in per_sample] for per_sample in tokens]
        return splice_batch(texts, counts, rows, self.lm.embed,
                            self.cfg.lm.context_limit)

    def forward_sample(self, images, question: str, answer: str,
                       tokens=None) -> LMOutput:
        """Loss for one supervised (images, question, answer) sample.

        Without tokens the graph reaches back into both encoders; with
        precomputed branch_tokens it starts at those tokens.
        """
        return self.lm.forward(self.assemble(images, question, answer,
                                             tokens))

    def answer(self, images, question: str, max_new: int = 8) -> str:
        """Greedy decode an answer string for one question.

        Every parameter stays out of the graph for the call, so decoding
        records no autograd edges.
        """
        with outside_graph(self.parameters()):
            seq = self.assemble(images, question, "")
            # The training assembler closes every sequence with EOS. For
            # inference that final slot must stay open, so trim it off.
            n = seq.length
            trimmed = AssembledSequence(
                embeddings=slice_axis(seq.embeddings, 0, 0, n - 1),
                token_ids=seq.token_ids[:-1],
                loss_mask=seq.loss_mask[:-1],
            )
            new_ids = self.lm.greedy_decode(trimmed, max_new, eos_id=EOS_ID)
        return self.tokenizer.decode(new_ids)
