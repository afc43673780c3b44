"""Projector and fusion tests.

The interleave law is checked against a permutation oracle built from
unique token tags: output rows must be a permutation of the inputs,
tile-major, A-block before B-block per tile, each branch's relative
order intact. Channel fusion is checked by its length law and by the
[I | 0] selector: a down map that copies branch A must reproduce branch
A exactly. Every strategy runs on arrays; its hand-derived backward is
checked bitwise against the composed-op oracle (tests/fusion_oracle.py),
rows and every projector and fusion.down gradient, for each layout a
Pipeline builds, and under frozen adapters.
"""

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.encoders import EncoderConfig
from tilefusion.errors import ConfigError, ContractError, DimensionError
from tilefusion.fusion import (
    FUSION_KINDS,
    Projector,
    VisualSequence,
    fuse_post_channel,
    fuse_post_interleave,
    fuse_pre,
    project,
)
from tilefusion.lm import LMConfig
from tilefusion.model import Pipeline, PipelineConfig

import fusion_oracle as oracle
from fusion_oracle import interleave_order, provenance
from oracle_ops import Tensor, backward, gelu, mul, sum_all


def tagged_sequence(n_tiles, per_tile, width, branch, tag_base, rng):
    """VisualSequence whose column 0 holds a unique increasing tag, and
    whose backward keeps each gradient it is given in .grads."""
    n = n_tiles * per_tile
    data = rng.standard_normal((n, width))
    data[:, 0] = tag_base + np.arange(n)
    seq = VisualSequence(data, n_tiles, ((branch, per_tile),))
    seq.grads = []
    seq.backward = seq.grads.append
    return seq


def grid_from(rng, n_tiles, side, channels):
    """Post-unshuffle branch tokens of a side x side grid per tile:
    [n_tiles, side * side, channels]."""
    return rng.standard_normal((n_tiles, side * side, channels))


# ---------------------------------------------------------------------------
# projector


def test_zero_projector_gives_zero_embeddings():
    rng = np.random.default_rng(0)
    proj = Projector("projectorA", in_dim=3, hidden=5, d_lm=4, seed=0)
    for p in proj.parameters():
        p.data[...] = 0.0
    out = project(proj, grid_from(rng, 2, 2, 3), "A")
    assert out.embeddings.shape == (8, 4)
    np.testing.assert_array_equal(out.embeddings, np.zeros((8, 4)))


def test_identity_projector_is_gelu():
    rng = np.random.default_rng(1)
    d = 4
    proj = Projector("p", in_dim=d, hidden=d, d_lm=d, seed=0)
    proj.w1.data[...] = np.eye(d)
    proj.w2.data[...] = np.eye(d)
    proj.b1.data[...] = 0.0
    proj.b2.data[...] = 0.0
    grid = grid_from(rng, 1, 2, d)
    out = project(proj, grid, "A")
    want = gelu(Tensor(grid.reshape(-1, d))).data
    np.testing.assert_array_equal(out.embeddings, want)


def test_project_desk_token_count():
    rng = np.random.default_rng(2)
    proj = Projector("p", in_dim=6, hidden=8, d_lm=5, seed=3)
    out = project(proj, grid_from(rng, 7, 4, 6), "A")
    assert out.n_tokens == 112
    assert out.width == 5
    assert (out.n_tiles, out.per_tile) == (7, 16)


def test_project_preserves_scan_order():
    rng = np.random.default_rng(3)
    grid = grid_from(rng, 2, 2, 3)
    proj = Projector("p", in_dim=3, hidden=3, d_lm=3, seed=0)
    out = project(proj, grid, "B")
    assert provenance(out) == [(t, "B", i) for t in range(2)
                               for i in range(4)]


def test_projector_rejects_width_mismatch():
    rng = np.random.default_rng(4)
    proj = Projector("p", in_dim=5, hidden=4, d_lm=3, seed=0)
    with pytest.raises(DimensionError):
        project(proj, grid_from(rng, 1, 2, 4), "A")


# ---------------------------------------------------------------------------
# post-interleave


def test_interleave_hand_case():
    a = VisualSequence(np.array([[1.0], [2.0], [3.0], [4.0]]), 2, (("A", 2),))
    b = VisualSequence(np.array([[10.0], [20.0], [30.0], [40.0]]), 2,
                       (("B", 2),))
    out = fuse_post_interleave(a, b)
    np.testing.assert_array_equal(
        out.embeddings.ravel(),
        [1.0, 2.0, 10.0, 20.0, 3.0, 4.0, 30.0, 40.0],
    )
    assert out.n_tokens == 8


def test_interleave_permutation_oracle_random_configs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n_tiles = int(rng.integers(1, 5))
        ta = int(rng.integers(1, 6))
        tb = int(rng.integers(1, 6))
        width = int(rng.integers(2, 7))
        a = tagged_sequence(n_tiles, ta, width, "A", 1000, rng)
        b = tagged_sequence(n_tiles, tb, width, "B", 2000, rng)
        out = fuse_post_interleave(a, b)

        assert out.n_tokens == a.n_tokens + b.n_tokens
        tags = out.embeddings[:, 0]
        all_tags = np.concatenate([a.embeddings[:, 0], b.embeddings[:, 0]])
        np.testing.assert_array_equal(np.sort(tags), np.sort(all_tags))

        prov = provenance(out)
        a_tags = tags[[i for i, (_, br, _) in enumerate(prov) if br == "A"]]
        b_tags = tags[[i for i, (_, br, _) in enumerate(prov) if br == "B"]]
        assert (np.diff(a_tags) > 0).all()
        assert (np.diff(b_tags) > 0).all()

        tiles = [t for t, _, _ in prov]
        assert tiles == sorted(tiles)
        for t in range(n_tiles):
            branches = [br for tt, br, _ in prov if tt == t]
            assert branches == ["A"] * ta + ["B"] * tb


def test_interleave_order_matches_per_tile_loop():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n_tiles = int(rng.integers(1, 8))
        ta = int(rng.integers(1, 10))
        tb = int(rng.integers(1, 10))
        # oracle: per tile, a's block of [a; b], then b's
        want = []
        for t in range(n_tiles):
            want.extend(range(t * ta, (t + 1) * ta))
            want.extend(range(n_tiles * ta + t * tb,
                              n_tiles * ta + (t + 1) * tb))
        assert interleave_order(n_tiles, ta, tb).tolist() == want


def test_interleave_paper_scale_length():
    rng = np.random.default_rng(7)
    a = tagged_sequence(1, 256, 2, "A", 0, rng)
    b = tagged_sequence(1, 256, 2, "B", 1000, rng)
    assert fuse_post_interleave(a, b).n_tokens == 512


def test_interleave_rejects_mismatched_tiles():
    rng = np.random.default_rng(8)
    a = tagged_sequence(2, 2, 3, "A", 0, rng)
    b = tagged_sequence(3, 2, 3, "B", 100, rng)
    with pytest.raises(ContractError):
        fuse_post_interleave(a, b)


def test_interleave_gradients_reach_both_inputs():
    rng = np.random.default_rng(9)
    a = tagged_sequence(2, 2, 3, "A", 0, rng)
    b = tagged_sequence(2, 3, 3, "B", 100, rng)
    out = fuse_post_interleave(a, b)
    out.backward(rng.standard_normal(out.embeddings.shape))
    [a_grad], [b_grad] = a.grads, b.grads
    assert np.abs(a_grad).max() > 0
    assert np.abs(b_grad).max() > 0


# ---------------------------------------------------------------------------
# post-channel


def test_post_channel_length_law_and_selector():
    rng = np.random.default_rng(10)
    d = 4
    a = tagged_sequence(2, 3, d, "A", 0, rng)
    b = tagged_sequence(2, 3, d, "B", 100, rng)
    down = tz.Parameter("fusion.down", np.vstack([np.eye(d),
                                                  np.zeros((d, d))]))
    out = fuse_post_channel(a, b, down)
    assert out.n_tokens == a.n_tokens
    np.testing.assert_array_equal(out.embeddings, a.embeddings)
    assert all(br == "A+B" for _, br, _ in provenance(out))


def test_post_channel_desk_arithmetic():
    rng = np.random.default_rng(11)
    a = tagged_sequence(1, 16, 3, "A", 0, rng)
    b = tagged_sequence(1, 16, 3, "B", 50, rng)
    down = tz.Parameter("fusion.down", rng.standard_normal((6, 3)))
    assert fuse_post_channel(a, b, down).n_tokens == 16


def test_post_channel_rejects_unequal_counts():
    rng = np.random.default_rng(12)
    a = tagged_sequence(1, 4, 3, "A", 0, rng)
    b = tagged_sequence(1, 5, 3, "B", 50, rng)
    down = tz.Parameter("fusion.down", np.zeros((6, 3)))
    with pytest.raises(ContractError):
        fuse_post_channel(a, b, down)


def test_post_channel_rejects_bad_down_shape():
    rng = np.random.default_rng(13)
    a = tagged_sequence(1, 2, 3, "A", 0, rng)
    b = tagged_sequence(1, 2, 3, "B", 10, rng)
    with pytest.raises(DimensionError):
        fuse_post_channel(a, b, tz.Parameter("fusion.down",
                                             np.zeros((5, 3))))


# ---------------------------------------------------------------------------
# pre-adaptation baselines


def test_pre_sequence_single_projector_paper_count():
    rng = np.random.default_rng(14)
    a = grid_from(rng, 1, 16, 3)
    b = grid_from(rng, 1, 16, 3)
    shared = Projector("projector_shared", in_dim=3, hidden=4, d_lm=5, seed=0)
    out = fuse_pre(a, b, "pre-sequence", shared)
    assert out.n_tokens == 512
    assert out.width == 5


def test_pre_sequence_block_structure():
    rng = np.random.default_rng(15)
    a = grid_from(rng, 2, 2, 3)
    b = grid_from(rng, 2, 1, 3)
    shared = Projector("s", in_dim=3, hidden=3, d_lm=2, seed=1)
    out = fuse_pre(a, b, "pre-sequence", shared)
    assert [(t, br) for t, br, _ in provenance(out)] == [
        (0, "A")] * 4 + [(0, "B")] + [(1, "A")] * 4 + [(1, "B")]


def test_pre_sequence_equals_interleave_gather_bitwise():
    # per tile, a's tokens then b's: the rows the interleave order
    # gathers from the tile-major [a; b] stack
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, ta, tb, c = (int(v) for v in rng.integers(1, 6, size=4))
        a = rng.standard_normal((n, ta, c))
        b = rng.standard_normal((n, tb, c))
        shared = Projector("s", in_dim=c, hidden=4, d_lm=3,
                           seed=int(rng.integers(1000)))
        out = fuse_pre(a, b, "pre-sequence", shared)
        rows = np.concatenate([a.reshape(-1, c), b.reshape(-1, c)])
        want, _ = shared.forward(rows[interleave_order(n, ta, tb)])
        assert out.embeddings.tobytes() == want.tobytes()
        assert (out.n_tiles, out.segments) == (n, (("A", ta), ("B", tb)))


def test_pre_sequence_rejects_channel_mismatch():
    rng = np.random.default_rng(16)
    shared = Projector("s", in_dim=3, hidden=3, d_lm=2, seed=1)
    with pytest.raises(DimensionError):
        fuse_pre(grid_from(rng, 1, 2, 3), grid_from(rng, 1, 2, 4),
                 "pre-sequence", shared)


def test_pre_channel_width_and_count():
    rng = np.random.default_rng(17)
    a = grid_from(rng, 2, 4, 3)
    b = grid_from(rng, 2, 4, 5)
    shared = Projector("s", in_dim=8, hidden=6, d_lm=4, seed=2)
    out = fuse_pre(a, b, "pre-channel", shared)
    assert out.n_tokens == 32
    assert out.width == 4


def test_pre_channel_zero_b_slice_is_branch_a_projection():
    rng = np.random.default_rng(18)
    ca, cb = 3, 2
    a = grid_from(rng, 1, 2, ca)
    b = grid_from(rng, 1, 2, cb)
    shared = Projector("s", in_dim=ca + cb, hidden=5, d_lm=4, seed=3)
    shared.w1.data[ca:, :] = 0.0
    solo = Projector("solo", in_dim=ca, hidden=5, d_lm=4, seed=99)
    solo.w1.data[...] = shared.w1.data[:ca, :]
    solo.b1.data[...] = shared.b1.data
    solo.w2.data[...] = shared.w2.data
    solo.b2.data[...] = shared.b2.data
    fused = fuse_pre(a, b, "pre-channel", shared)
    alone, _ = solo.forward(a.reshape(-1, ca))
    np.testing.assert_allclose(fused.embeddings, alone, rtol=0, atol=1e-15)


def test_pre_channel_rejects_unequal_counts_and_bad_kind():
    rng = np.random.default_rng(19)
    shared = Projector("s", in_dim=6, hidden=3, d_lm=2, seed=0)
    with pytest.raises(ContractError):
        fuse_pre(grid_from(rng, 1, 2, 3), grid_from(rng, 1, 3, 3),
                 "pre-channel", shared)
    with pytest.raises(ConfigError):
        fuse_pre(grid_from(rng, 1, 2, 3), grid_from(rng, 1, 2, 3),
                 "mid-fusion", shared)
    with pytest.raises(ContractError):
        fuse_pre(grid_from(rng, 1, 2, 3), grid_from(rng, 2, 2, 3),
                 "pre-sequence", shared)


def test_gradients_flow_to_both_projectors_under_interleave():
    rng = np.random.default_rng(20)
    pa = Projector("projectorA", in_dim=3, hidden=4, d_lm=5, seed=0)
    pb = Projector("projectorB", in_dim=2, hidden=4, d_lm=5, seed=1)
    ga = grid_from(rng, 2, 2, 3)
    gb = grid_from(rng, 2, 3, 2)
    out = fuse_post_interleave(project(pa, ga, "A"), project(pb, gb, "B"))
    out.backward(rng.standard_normal(out.embeddings.shape))
    assert np.abs(pa.w1.grad).max() > 0
    assert np.abs(pb.w1.grad).max() > 0


# ---------------------------------------------------------------------------
# sequence validation


def test_visual_sequence_validation():
    with pytest.raises(DimensionError):
        VisualSequence(np.zeros(4), 1, (("A", 4),))
    with pytest.raises(ContractError):
        VisualSequence(np.zeros((5, 3)), 2, (("A", 2),))
    with pytest.raises(ContractError):
        VisualSequence(np.zeros((4, 3)), 1, (("A", 1), ("B", 2), ("A", 1)))
    seq = VisualSequence(np.zeros((6, 3)), 2, (("A", 2), ("B", 1)))
    assert provenance(seq) == [(0, "A", 0), (0, "A", 1), (0, "B", 0),
                              (1, "A", 0), (1, "A", 1), (1, "B", 0)]


def test_fusion_kind_registry():
    assert FUSION_KINDS == ("post-interleave", "post-channel",
                            "pre-sequence", "pre-channel")


# ---------------------------------------------------------------------------
# the fused rows' backward, the last link of a training step's closure,
# against the composed-op oracle


def layout_cfg(encoders="A+B", fusion="post-interleave", embed_b=8):
    # A: 16 tokens of 32 channels per tile; B: 16 tokens of
    # embed_b * 16 channels
    enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=embed_b, depth=1, heads=2,
                          grid_side=16, unshuffle_r=4)
    return PipelineConfig(encoder_a=enc_a, encoder_b=enc_b,
                          lm=LMConfig(d_lm=16, layers=1, heads=2),
                          encoders=encoders, fusion=fusion,
                          projector_hidden=8)


NODE_LAYOUTS = {
    "post-interleave": layout_cfg(),
    "post-channel": layout_cfg(fusion="post-channel"),
    "pre-sequence": layout_cfg(fusion="pre-sequence", embed_b=2),
    "pre-channel": layout_cfg(fusion="pre-channel"),
    "A-only": layout_cfg(encoders="A"),
    "B-only": layout_cfg(encoders="B"),
}


def random_tokens(model, tiles, rng):
    """frozen_tokens-shaped random arrays, one dict per image."""
    widths = {"A": model.cfg.width_a, "B": model.cfg.width_b}
    encoders = {"A": model.encoder_a, "B": model.encoder_b}
    return [{label: rng.standard_normal(
                (n, encoders[label].cfg.tokens_per_tile, widths[label]))
             for label in model.cfg.encoders.split("+")} for n in tiles]


def adapter_grads(model, rows, weights):
    """Each adapter parameter's gradient of sum(rows * weights), or None."""
    params = model._adapter_parameters()
    for p in params:
        p.grad = None
    backward(sum_all(mul(rows, Tensor(weights))))
    return {p.name: None if p.grad is None else p.grad.tobytes()
            for p in params}


@pytest.mark.parametrize("frozen", ["none", "projectorA.", "all"])
@pytest.mark.parametrize("layout", sorted(NODE_LAYOUTS))
def test_visual_rows_node_equals_composed_oracle_bitwise(layout, frozen):
    model = Pipeline(NODE_LAYOUTS[layout], seed=4)
    rng = np.random.default_rng(5)
    tokens = random_tokens(model, [3, 1, 2], rng)
    stacked = {label: np.concatenate([t[label] for t in tokens])
               for label in tokens[0]}
    adapters = model._adapter_parameters()
    held = {"none": [], "all": adapters,
            "projectorA.": [p for p in adapters
                            if p.name.startswith("projectorA.")]}[frozen]
    for p in held:
        p.frozen = True
    fused = model.fuse_images(tokens)
    want = oracle.fuse_tokens(model, stacked)
    assert fused.embeddings.tobytes() == want.embeddings.data.tobytes()
    assert (fused.n_tiles, fused.segments) == (want.n_tiles, want.segments)
    weights = rng.standard_normal(fused.embeddings.shape)
    for p in adapters:
        p.grad = None
    fused.backward(weights)
    got = {p.name: None if p.grad is None else p.grad.tobytes()
           for p in adapters}
    expected = adapter_grads(model, want.embeddings, weights)
    assert got == expected
    for p in adapters:
        assert (got[p.name] is None) == (p in held), p.name
