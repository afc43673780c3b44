"""Full image-to-text pipeline: tiler, encoders, projectors, fusion, LM.

The Pipeline class owns every learnable parameter and wires one or two
vision branches into the language model. Images come in as raw [0, 1]
buffers; each is segmented into tiles, encoded per branch, compressed
by pixel unshuffle, projected into LM width, fused into a single visual
sequence, and spliced into the token stream around the prompt text.

The image side after the encoders runs once per batch, not once per
image, and on arrays: fuse_images stacks every image's post-unshuffle
tokens along the tile axis and calls project and the fusion function
once, returning a VisualSequence whose backward is hand-derived
(fusion.py). Because fusion is tile-local, image k's rows are the
contiguous rows of its tiles. assemble_batch splices a whole step on
arrays (assembly.splice_batch), and loss runs the LM's loss on it
(LanguageModel.loss): the step's forward is array code throughout, and
its backward is one closure, the LM's backward, then the splice's, then
the fused rows', that accumulates into every parameter not frozen.
answer fuses each of its images on its own, splices its one sample
(assembly.splice) and decodes it (LanguageModel.greedy_decode), and
keeps no backward at all.

The encoders are frozen in every stage and run forward only, on arrays
(encoders.py): their tokens are ndarrays that no backward reaches, so
no gradient reaches an encoder parameter. They cost one forward pass per
distinct encoder input per Pipeline, across every run_stage and answer
call. frozen_tokens keeps each branch's post-unshuffle tokens, one
channels-last [n_tiles, tokens, channels] array, on two levels:

- token_cache maps an image's content_key (its shape and the sha1 of
  its pixel bytes, hashed once per ImageBuffer) to {label: tokens};
  a repeat image is one dict lookup.
- view_cache, read only on a token_cache miss, maps a filtered branch's
  input to that branch's tokens, keyed by (label, rows shape, sha1 of
  rows), where rows is Encoder.patch_rows of the image's tiles: the
  encoder's exact input, after its filter and normalization. The
  encoder is a pure function of those rows, so two images whose
  filtered views agree (a complementary image's highpass view depends
  only on its texture) share one encode. An unfiltered branch's input
  is a function of the image alone, so it encodes on every token_cache
  miss and keeps no view entry.
  A miss computes each branch's rows once: the same array is hashed
  for the key and handed to Encoder.encode(tiles, rows).
  token_cache entries hold the view_cache arrays themselves.

run_stage fills both before its first step, walking its whole
schedule in the order its steps read it, so a step's frozen_tokens
calls are all hits; answer fills them as it goes.

Both hold for the Pipeline's life, because its encoder weights do:
the first fill makes every encoder parameter array read-only
(flags.writeable = False), so a later in-place write, a restore's
included, raises numpy's ValueError where it happens instead of
leaving a stale cache. Weights written before the first fill (a
restore into a fresh Pipeline) are the ones the caches hold. A cached
array is the encoder's output on identical rows, so answers from the
caches are bitwise the answers of an uncached encode
(tests/per_image_oracle.py keeps that path as the oracle).

Parameter names are namespaced by component ("encoderA.", "projectorB.",
"fusion.down", "lm.") so training stages can freeze whole subsystems by
prefix alone.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .assembly import (
    EOS_ID,
    ByteTokenizer,
    SequenceBatch,
    build_prompt,
    splice,
    splice_batch,
)
from .encoders import Encoder, EncoderConfig, pixel_unshuffle
from .errors import ContractError, reject
from .fusion import (
    FUSION_KINDS,
    Projector,
    VisualSequence,
    fuse_post_channel,
    fuse_post_interleave,
    fuse_pre,
    project,
)
from .lm import LanguageModel, LMConfig
from .tiling import ImageBuffer, segment
from .transformer import linear

ENCODER_CHOICES = ("A", "B", "A+B")


@dataclass
class PipelineConfig:
    """Everything needed to build one pipeline variant.

    encoders selects which vision branches exist. With a single branch
    the fusion kind is ignored; that branch's projector output is the
    visual sequence. Every used branch reads the same tiles, so the
    tile side is the encoders' (tile_size), not a field of its own.
    max_tiles=1 puts every image on a single tile, which never gets a
    thumbnail: the no-tiling baseline.
    """

    encoder_a: EncoderConfig
    encoder_b: EncoderConfig
    lm: LMConfig
    max_tiles: int = 6
    thumbnail: bool = True
    encoders: str = "A+B"
    fusion: str = "post-interleave"
    projector_hidden: int = 16

    def __post_init__(self):
        problems = []
        if self.encoders not in ENCODER_CHOICES:
            problems.append(f"encoders: must be one of {ENCODER_CHOICES}, "
                            f"got {self.encoders!r}")
        if self.fusion not in FUSION_KINDS:
            problems.append(f"fusion: must be one of {FUSION_KINDS}, "
                            f"got {self.fusion!r}")
        for key in ("max_tiles", "projector_hidden"):
            if getattr(self, key) <= 0:
                problems.append(f"{key}: must be positive")
        for label, key in (("A", "encoder_a"), ("B", "encoder_b")):
            enc = getattr(self, key)
            if (self._uses(label) and enc.input_filter != "none"
                    and enc.tile_side % enc.filter_block != 0):
                problems.append(
                    f"{key}.filter_block: {enc.filter_block} does not "
                    f"divide the branch's {enc.tile_side}px tiles, and "
                    f"the {enc.input_filter} filter runs on whole tiles")
        if self.encoders in ENCODER_CHOICES and self.tile_size < 2:
            key = "encoder_a" if self._uses("A") else "encoder_b"
            problems.append(f"{key}: tiles must be >= 2 px (patch_size "
                            f"x grid_side), got {self.tile_size}")
        if self.encoders == "A+B":
            side_a = self.encoder_a.tile_side
            side_b = self.encoder_b.tile_side
            if side_a != side_b:
                problems.append(
                    f"encoder_b: expects {side_b}px tiles (patch_size x "
                    f"grid_side), encoder_a {side_a}px; both branches "
                    f"read the same tiles")
            wa = self.width_a
            wb = self.width_b
            if self.fusion == "pre-sequence" and wa != wb:
                problems.append(
                    f"fusion: pre-sequence needs equal post-unshuffle "
                    f"widths, got {wa} and {wb}")
            if self.fusion in ("post-channel", "pre-channel"):
                ta = self.encoder_a.tokens_per_tile
                tb = self.encoder_b.tokens_per_tile
                if ta != tb:
                    problems.append(
                        f"fusion: {self.fusion} needs equal tokens per "
                        f"tile, got {ta} and {tb}")
        reject(problems)

    def _uses(self, branch: str) -> bool:
        return branch in self.encoders.split("+")

    @property
    def tile_size(self) -> int:
        """Side of the square tiles the tiler cuts: the used branches'
        tile_side (patch_size x grid_side), equal for A+B."""
        enc = self.encoder_a if self._uses("A") else self.encoder_b
        return enc.tile_side

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

        # (image shape, pixel digest) -> {label: tokens} and a
        # filtered branch's view key -> the same arrays
        self.token_cache = {}
        self.view_cache = {}

        # Start every parameter on the f32 lattice. Checkpoints store
        # f32, and saving quantizes live values in place; with lattice
        # init that quantization is a no-op for parameters a stage never
        # updated, so freeze guarantees stay byte-exact across saves.
        for p in self.parameters():
            p.data[...] = p.data.astype(np.float32)

    def parameters(self) -> list:
        out = []
        for _, enc in self._branches():
            out.extend(enc.parameters())
        out.extend(self._adapter_parameters())
        out.extend(self.lm.parameters())
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in pipeline")
        return out

    def _adapter_parameters(self) -> list:
        """The projectors' parameters, then fusion.down: what
        fuse_images trains."""
        out = []
        for proj in (self.projector_a, self.projector_b,
                     self.projector_shared):
            if proj is not None:
                out.extend(proj.parameters())
        if self.down is not None:
            out.append(self.down)
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
        return segment(image, self.cfg.tile_size, self.cfg.max_tiles,
                       thumbnail=self.cfg.thumbnail)

    def _branches(self) -> list:
        """(label, encoder) of each used branch, "A" first."""
        return [(label, encoder) for label, encoder in
                (("A", self.encoder_a), ("B", self.encoder_b))
                if encoder is not None]

    def frozen_tokens(self, image: ImageBuffer) -> dict:
        """Each used branch's post-unshuffle [n_tiles, tokens, channels]
        tokens of image (tile, encode, unshuffle), keyed "A" and "B",
        from the two caches.

        A token_cache hit returns the image's arrays. On a miss, an
        unfiltered branch encodes; a filtered one hashes its patch_rows
        for its view key and encodes those rows only if view_cache has
        no tokens for them. The image's entry then holds the view
        arrays. The first miss locks every encoder's weights read-only
        before it encodes, so no cache entry outlives the weights it
        came from.
        """
        tokens = self.token_cache.get(image.content_key)
        if tokens is None:
            if not self.token_cache:
                for _, encoder in self._branches():
                    for p in encoder.parameters():
                        p.data.flags.writeable = False
            tiles = self.segment_image(image)
            tokens = {}
            for label, encoder in self._branches():
                rows = encoder.patch_rows(tiles)
                key = view = None
                if encoder.cfg.input_filter != "none":
                    key = (label, rows.shape, hashlib.sha1(rows).digest())
                    view = self.view_cache.get(key)
                if view is None:
                    view = pixel_unshuffle(encoder.encode(tiles, rows),
                                           encoder.cfg.unshuffle_r)
                    if key is not None:
                        self.view_cache[key] = view
                tokens[label] = view
            self.token_cache[image.content_key] = tokens
        return tokens

    def fuse_images(self, tokens: list) -> VisualSequence:
        """Trainable half of the image side: project and fuse, for many
        images in one pass, on arrays.

        tokens holds frozen_tokens output per image. Each branch's
        arrays are stacked along the tile axis with np.concatenate, image
        after image, then projected and fused once, so the result's
        n_tiles counts the tiles of the whole stack and image k's rows
        follow image k - 1's. The stack is a constant: the result's
        backward accumulates into the projectors and fusion.down only.
        """
        stacked = {}
        for label in tokens[0]:
            views = [t[label] for t in tokens]
            stacked[label] = (views[0] if len(views) == 1
                              else np.concatenate(views))
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

    def assemble_batch(self, samples, tokens) -> SequenceBatch:
        """Splice samples (each with .images, .question, .answer) into one
        right-padded batch, on arrays: one fuse_images pass over all
        their images, then splice_batch. tokens holds frozen_tokens
        output per image per sample. The batch's backward accumulates
        into lm.embed and, through the fused rows' backward, into the
        projectors and fusion.down, never into an encoder; it returns
        nothing."""
        flat = [t for per_sample in tokens for t in per_sample]
        fused = self.fuse_images(flat) if flat else None
        rows = (fused.embeddings if flat
                else np.zeros((0, self.cfg.lm.d_lm)))
        encode = self.tokenizer.encode
        texts = [(encode(build_prompt(len(s.images), s.question)),
                  encode(s.answer)) for s in samples]
        # an image's fused rows: its tiles times fused tokens per tile
        per_tile = self.cfg.tokens_per_tile()
        counts = [[next(iter(t.values())).shape[0] * per_tile
                   for t in per_sample] for per_sample in tokens]
        batch = splice_batch(texts, counts, rows, self.lm.embed,
                             self.cfg.lm.context_limit)
        if fused is not None:
            rows_backward = batch.backward
            batch.backward = lambda g: fused.backward(rows_backward(g))
        return batch

    def loss(self, samples, tokens) -> tuple:
        """(value, backward) of a training step's mean loss over samples:
        assemble_batch, then LanguageModel.loss. backward(g) is the
        hand-derived chain of them all, the LM's, the splice's and the
        fused rows', and accumulates into every parameter that is not
        frozen."""
        return self.lm.loss(self.assemble_batch(samples, tokens))

    def answer(self, images, question: str, max_new: int) -> str:
        """Greedy decode an answer string for one question, on arrays.

        Each image's branch tokens come from the frozen-token caches
        (frozen_tokens): a repeat image encodes nothing, and a new one
        runs only the branches whose view is new. Each image is
        fused on its own (fuse_images), the prompt is spliced from the
        fused arrays and the embedding table's (splice), and
        LanguageModel.greedy_decode runs it once into a KV cache and
        each emitted token but the last as a one-row step. Nothing
        here keeps a backward or touches a parameter's grad.
        """
        # splice takes one sequence per image; every shipped task has
        # one image per sample, so this is one fused pass
        visuals = [self.fuse_images([self.frozen_tokens(img)])
                   for img in images]
        prompt_ids = self.tokenizer.encode(build_prompt(len(images), question))
        batch = splice(prompt_ids, [], visuals, self.lm.embed,
                       self.cfg.lm.context_limit)
        # The assembler closes every sequence with EOS. For inference
        # that final slot must stay open, so trim it off.
        prompt = SequenceBatch(batch.embeddings[:, :-1],
                               batch.token_ids[:, :-1],
                               batch.loss_mask[:, :-1])
        new_ids = self.lm.greedy_decode(prompt, max_new, eos_id=EOS_ID)
        return self.tokenizer.decode(new_ids)
