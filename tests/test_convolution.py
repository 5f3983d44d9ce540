import numpy as np
import pytest

from anchorgae.anchor_graph import from_rows
from anchorgae.convolution import (
    EncoderParams,
    apply_anchor_adjacency,
    apply_anchor_adjacency_t,
    apply_sample_adjacency,
    conv_forward_anchors,
    conv_forward_samples,
    init_params,
)
from anchorgae.numerics import make_rng
from oracles import (
    dense_gcn_forward,
    factored_anchor_adjacency,
    factored_anchor_adjacency_t,
)


def identity_graph(n, d_anchor=1):
    return from_rows(np.arange(n)[:, None], np.ones((n, 1)),
                     np.zeros((n, d_anchor)), n)


def random_graph(n, m, k, rng):
    idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
    idx[:m, 0] = np.arange(m)
    fixed = []
    for row in idx:
        if len(set(row.tolist())) < k:
            row = np.array(sorted(set(row.tolist()) |
                                  {int(v) for v in range(m)})[:k])
        fixed.append(row)
    idx = np.stack(fixed)
    w = rng.random((n, k)) + 0.05
    w /= w.sum(axis=1, keepdims=True)
    return from_rows(idx, w, np.zeros((m, 1)), m)


def test_init_params_shapes_and_bounds():
    params = init_params([4, 3], make_rng(1))
    assert params.layers[0].shape == (4, 3)
    bound = np.sqrt(6.0 / 7.0)
    assert np.max(np.abs(params.layers[0])) <= bound
    assert params.activations == ["linear"]


def test_init_params_deterministic():
    a = init_params([6, 5, 2], make_rng(7))
    b = init_params([6, 5, 2], make_rng(7))
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)


def test_init_params_default_stack_sizes():
    params = init_params([784, 128, 64], make_rng(2))
    assert len(params.layers) == 2
    assert params.layers[0].shape == (784, 128)
    assert params.layers[1].shape == (128, 64)
    assert params.activations == ["relu", "linear"]
    assert params.dims == [784, 128, 64]


def test_init_params_rejects_single_dim():
    with pytest.raises(ValueError):
        init_params([4], make_rng(0))


def test_encoder_params_validation():
    w1, w2 = np.zeros((4, 3)), np.zeros((5, 2))
    with pytest.raises(ValueError, match="chain"):
        EncoderParams([w1, w2], ["relu", "linear"])
    with pytest.raises(ValueError, match="last layer"):
        EncoderParams([np.zeros((4, 3))], ["relu"])
    with pytest.raises(ValueError, match="activation"):
        EncoderParams([np.zeros((4, 3))], ["tanh"])


def test_identity_graph_single_linear_layer_is_xw():
    rng = make_rng(3)
    x = rng.normal(size=(6, 4))
    params = init_params([4, 2], rng)
    z, cache = conv_forward_samples(identity_graph(6), x, params)
    assert np.max(np.abs(z - x @ params.layers[0])) < 1e-12
    assert len(cache.aggregated) == 1 and len(cache.pre_activation) == 1


def test_factored_matches_dense_oracle_both_branches():
    rng = make_rng(4)
    for _ in range(5):
        n, m, k = 40, 8, 3
        g = random_graph(n, m, k, rng)
        x = rng.normal(size=(n, 5))
        c = rng.normal(size=(m, 5))
        params = init_params([5, 6, 3], rng)
        from anchorgae.anchor_graph import dense_adjacency
        a, a_t = dense_adjacency(g)
        z, _ = conv_forward_samples(g, x, params)
        z_t, _ = conv_forward_anchors(g, c, params)
        assert np.max(np.abs(z - dense_gcn_forward(a, x, params))) < 1e-8
        assert np.max(np.abs(z_t - dense_gcn_forward(a_t, c, params))) < 1e-8


def test_anchor_adjacency_matches_factored_oracle():
    rng = make_rng(11)
    graphs = [random_graph(n, m, k, rng)
              for n, m, k in ((40, 8, 3), (60, 12, 1), (30, 2, 1), (25, 5, 4))]
    # Anchor 2 carries a single tiny weight, so its degree is ~1e-10 and
    # its adjacency row is scaled by ~1e10.
    idx = np.tile(np.array([[0, 1, 3]]), (20, 1))
    idx[0] = [0, 1, 2]
    w = np.tile(np.array([[0.5, 0.3, 0.2]]), (20, 1))
    w[0] = [0.6, 0.4 - 1e-10, 1e-10]
    graphs.append(from_rows(idx, w, np.zeros((4, 1)), 4))
    for g in graphs:
        h = rng.normal(size=(g.m, 6))
        assert np.max(np.abs(apply_anchor_adjacency(g, h)
                             - factored_anchor_adjacency(g, h))) < 1e-12
        assert np.max(np.abs(apply_anchor_adjacency_t(g, h)
                             - factored_anchor_adjacency_t(g, h))) < 1e-12
        assert g.anchor_adjacency() is g.anchor_adjacency()


def test_given_first_layer_aggregate_is_used_uncopied():
    rng = make_rng(12)
    g = random_graph(30, 6, 2, rng)
    x = rng.normal(size=(30, 4))
    c = rng.normal(size=(6, 4))
    params = init_params([4, 5, 3], rng)
    ax, ac = apply_sample_adjacency(g, x), apply_anchor_adjacency(g, c)
    z, cache_s = conv_forward_samples(g, x, params, aggregated_x=ax)
    z_t, cache_a = conv_forward_anchors(g, c, params, aggregated_c=ac)
    assert cache_s.aggregated[0] is ax and cache_a.aggregated[0] is ac
    assert np.array_equal(z, conv_forward_samples(g, x, params)[0])
    assert np.array_equal(z_t, conv_forward_anchors(g, c, params)[0])


def test_relu_kills_all_negative_preactivations():
    rng = make_rng(5)
    x = -np.abs(rng.normal(size=(5, 3)))  # strictly negative input
    w1 = np.abs(rng.normal(size=(3, 4)))  # positive weights => negative preact
    w2 = rng.normal(size=(4, 2))
    params = EncoderParams([w1, w2], ["relu", "linear"])
    z, cache = conv_forward_samples(identity_graph(5), x, params)
    assert np.array_equal(z, np.zeros((5, 2)))
    assert (cache.pre_activation[0] <= 0).all()


def test_siamese_identity_square_graph():
    rng = make_rng(6)
    n = 7
    g = identity_graph(n)
    x = rng.normal(size=(n, 3))
    params = init_params([3, 4, 2], rng)
    z, _ = conv_forward_samples(g, x, params)
    z_t, _ = conv_forward_anchors(g, x, params)
    assert np.max(np.abs(z - z_t)) < 1e-12


def test_row_stochastic_smoothing_convex_combination():
    rng = make_rng(8)
    n, m, k, d = 30, 6, 2, 4
    g = random_graph(n, m, k, rng)
    x = rng.normal(size=(n, d))
    params = EncoderParams([np.eye(d)], ["linear"])
    z, _ = conv_forward_samples(g, x, params)
    for col in range(d):
        assert z[:, col].min() >= x[:, col].min() - 1e-12
        assert z[:, col].max() <= x[:, col].max() + 1e-12


def test_inference_mode_drops_cache():
    rng = make_rng(9)
    g = random_graph(10, 4, 2, rng)
    x = rng.normal(size=(10, 3))
    params = init_params([3, 2], rng)
    z, cache = conv_forward_samples(g, x, params, keep_cache=False)
    assert cache is None
    assert z.shape == (10, 2)


def test_dimension_mismatch_errors():
    rng = make_rng(10)
    g = random_graph(10, 4, 2, rng)
    params = init_params([3, 2], rng)
    with pytest.raises(ValueError, match="input dim"):
        conv_forward_samples(g, rng.normal(size=(10, 5)), params)
    with pytest.raises(ValueError, match="graph has"):
        conv_forward_samples(g, rng.normal(size=(9, 3)), params)
    with pytest.raises(ValueError, match="graph has"):
        conv_forward_anchors(g, rng.normal(size=(5, 3)), params)
    x = rng.normal(size=(10, 3))
    with pytest.raises(ValueError, match="aggregated input"):
        conv_forward_samples(g, x, params, aggregated_x=x[:, :2])
