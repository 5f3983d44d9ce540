import numpy as np
import pytest

from anchorgae.anchor_graph import AnchorGraph
from anchorgae.convolution import (
    EncoderParams,
    apply_anchor_adjacency,
    apply_anchor_adjacency_t,
    conv_forward_anchors,
    conv_forward_samples,
    init_params,
)
from anchorgae.numerics import make_rng
from oracles import (
    aggregated_forward,
    apply_sample_adjacency,
    dense_adjacencies,
    dense_gcn_forward,
    encoder_dims,
    factored_anchor_adjacency,
    factored_anchor_adjacency_t,
    first_layer_inputs,
)


def identity_graph(n):
    return AnchorGraph(np.arange(n)[:, None], np.ones((n, 1)), n)


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
    return AnchorGraph(idx, w, m)


def test_init_params_shapes_and_bounds():
    params = init_params([4, 3], make_rng(1))
    assert params.layers[0].shape == (4, 3)
    bound = np.sqrt(6.0 / 7.0)
    assert np.max(np.abs(params.layers[0])) <= bound


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
    assert encoder_dims(params) == [784, 128, 64]


def test_init_params_rejects_single_dim():
    with pytest.raises(ValueError):
        init_params([4], make_rng(0))


def test_encoder_params_validation():
    w1, w2 = np.zeros((4, 3)), np.zeros((5, 2))
    with pytest.raises(ValueError, match="chain"):
        EncoderParams([w1, w2])
    with pytest.raises(ValueError, match="at least one layer"):
        EncoderParams([])


def test_identity_graph_single_linear_layer_is_xw():
    rng = make_rng(3)
    x = rng.normal(size=(6, 4))
    params = init_params([4, 2], rng)
    g = identity_graph(6)
    cache = conv_forward_samples(g, g.pool(x), params)
    z = g.b_dot(cache.top)
    assert np.max(np.abs(z - x @ params.layers[0])) < 1e-12
    assert len(cache.inputs) == 1 and cache.activations == []
    assert cache.top.shape == (g.m, 2)


def test_factored_matches_dense_oracle_both_branches():
    rng = make_rng(4)
    for _ in range(5):
        n, m, k = 40, 8, 3
        g = random_graph(n, m, k, rng)
        x = rng.normal(size=(n, 5))
        c = rng.normal(size=(m, 5))
        params = init_params([5, 6, 3], rng)
        _, a, a_t = dense_adjacencies(g.indices, g.weights, g.m)
        p0, a0 = first_layer_inputs(g, x, c)
        z = g.b_dot(conv_forward_samples(g, p0, params).top)
        z_t = conv_forward_anchors(g, a0, params).top
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
    graphs.append(AnchorGraph(idx, w, 4))
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
    p0, a0 = g.pool(x), apply_anchor_adjacency(g, c)
    cache_s = conv_forward_samples(g, p0, params)
    z = g.b_dot(cache_s.top)
    cache_a = conv_forward_anchors(g, a0, params)
    z_t = cache_a.top
    assert cache_s.inputs[0] is p0 and cache_a.inputs[0] is a0
    ref_z, _, _ = aggregated_forward(g, x, params, apply_sample_adjacency)
    ref_zt, _, _ = aggregated_forward(g, c, params, factored_anchor_adjacency)
    assert np.max(np.abs(z - ref_z)) < 1e-12
    assert np.max(np.abs(z_t - ref_zt)) < 1e-12


def test_sample_layers_match_aggregate_then_multiply_oracle():
    rng = make_rng(13)
    for n, m, k, dims in ((40, 8, 3, [5, 6, 3]), (60, 12, 1, [3, 7, 4, 2]),
                          (30, 6, 4, [9, 2])):
        g = random_graph(n, m, k, rng)
        x = rng.normal(size=(n, dims[0]))
        params = init_params(dims, rng)
        cache = conv_forward_samples(g, g.pool(x), params)
        z = g.b_dot(cache.top)
        ref_z, aggregates, pre = aggregated_forward(g, x, params,
                                                    apply_sample_adjacency)
        assert np.max(np.abs(z - ref_z)) < 1e-12
        assert len(cache.activations) == len(params.layers) - 1
        for p_l, a_l, h_l, ref_s in zip(cache.inputs, aggregates,
                                        cache.activations + [z], pre):
            # The m-row input is the pooled one; spreading it back with B
            # gives the n-row aggregate. A hidden layer keeps its ReLU, the
            # last its linear output.
            assert p_l.shape == (g.m, a_l.shape[1])
            assert np.max(np.abs(g.b_dot(p_l) - a_l)) < 1e-12
            ref_h = ref_s if h_l is z else np.maximum(ref_s, 0.0)
            assert np.max(np.abs(h_l - ref_h)) < 1e-12


def test_relu_kills_all_negative_preactivations():
    rng = make_rng(5)
    x = -np.abs(rng.normal(size=(5, 3)))  # strictly negative input
    w1 = np.abs(rng.normal(size=(3, 4)))  # positive weights => negative preact
    w2 = rng.normal(size=(4, 2))
    params = EncoderParams([w1, w2])
    g = identity_graph(5)
    cache = conv_forward_samples(g, g.pool(x), params)
    z = g.b_dot(cache.top)
    assert np.array_equal(z, np.zeros((5, 2)))
    assert not cache.activations[0].any()


def test_siamese_identity_square_graph():
    rng = make_rng(6)
    n = 7
    g = identity_graph(n)
    x = rng.normal(size=(n, 3))
    params = init_params([3, 4, 2], rng)
    p0, a0 = first_layer_inputs(g, x, x)
    z = g.b_dot(conv_forward_samples(g, p0, params).top)
    z_t = conv_forward_anchors(g, a0, params).top
    assert np.max(np.abs(z - z_t)) < 1e-12


def test_row_stochastic_smoothing_convex_combination():
    rng = make_rng(8)
    n, m, k, d = 30, 6, 2, 4
    g = random_graph(n, m, k, rng)
    x = rng.normal(size=(n, d))
    params = EncoderParams([np.eye(d)])
    z = g.b_dot(conv_forward_samples(g, g.pool(x), params).top)
    for col in range(d):
        assert z[:, col].min() >= x[:, col].min() - 1e-12
        assert z[:, col].max() <= x[:, col].max() + 1e-12


def test_dimension_mismatch_errors():
    rng = make_rng(10)
    g = random_graph(10, 4, 2, rng)
    params = init_params([3, 2], rng)
    expected = r"first-layer input has shape \(.*\), expected \(4, 3\)"
    # A first-layer input of the wrong width, on either branch.
    with pytest.raises(ValueError, match=expected):
        conv_forward_samples(g, g.pool(rng.normal(size=(10, 5))), params)
    with pytest.raises(ValueError, match=expected):
        conv_forward_anchors(g, rng.normal(size=(4, 2)), params)
    # Raw n-row samples, or raw anchors of another count, where the m-row
    # first-layer input belongs.
    x = rng.normal(size=(10, 3))
    with pytest.raises(ValueError, match=expected):
        conv_forward_samples(g, x, params)
    with pytest.raises(ValueError, match=expected):
        conv_forward_anchors(g, rng.normal(size=(5, 3)), params)
