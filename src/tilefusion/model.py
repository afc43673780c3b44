"""Full image-to-text pipeline: tiler, encoders, projectors, fusion, LM.

The Pipeline class owns every learnable parameter and wires one or two
vision branches into the language model. Images come in as raw [0, 1]
buffers; each is segmented into tiles, encoded per branch, compressed
by pixel unshuffle, projected into LM width, fused into a single visual
sequence, and spliced into the token stream around the prompt text.

Parameter names are namespaced by component ("encoderA.", "projectorB.",
"fusion.down", "lm.") so training stages can freeze whole subsystems by
prefix alone.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import (
    EOS_ID,
    AssembledSequence,
    ByteTokenizer,
    build_prompt,
    splice,
)
from .encoders import Encoder, EncoderConfig, pixel_unshuffle
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
from .tensor import outside_graph, slice_axis
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

        # Start every parameter on the f32 lattice. Checkpoints store
        # f32, and saving quantizes live values in place; with lattice
        # init that quantization is a no-op for parameters a stage never
        # updated, so freeze guarantees stay byte-exact across saves.
        for p in self.parameters():
            p.data = p.data.astype(np.float32).astype(np.float64)

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
        compute this once per image and reuse it.
        """
        tiles = self.segment_image(image)
        out = {}
        for label, encoder in (("A", self.encoder_a), ("B", self.encoder_b)):
            if encoder is not None:
                out[label] = pixel_unshuffle(encoder.encode(tiles),
                                             encoder.cfg.unshuffle_r)
        return out

    def fuse_tokens(self, tokens: dict) -> VisualSequence:
        """Trainable half of encode_image: project, then fuse."""
        cfg = self.cfg
        if cfg.encoders == "A":
            return project(self.projector_a, tokens["A"], "A")
        if cfg.encoders == "B":
            return project(self.projector_b, tokens["B"], "B")

        tok_a, tok_b = tokens["A"], tokens["B"]
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
        return self.fuse_tokens(self.branch_tokens(image))

    def assemble(self, images, question: str, answer: str,
                 tokens=None) -> AssembledSequence:
        """Splice one sample. tokens, when given, holds branch_tokens
        output per image and replaces the encoder pass."""
        if tokens is None:
            tokens = [self.branch_tokens(img) for img in images]
        visuals = [self.fuse_tokens(t) for t in tokens]
        prompt_ids = self.tokenizer.encode(build_prompt(len(images), question))
        answer_ids = self.tokenizer.encode(answer)
        return splice(prompt_ids, answer_ids, visuals, self.lm.embed,
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
