import warnings

import numpy as np
import pytest

from anchorgae import numerics, training
from anchorgae.anchor_graph import (
    AnchorGraph,
    ConnectivitySolveConfig,
    fit_anchor_graph,
    init_anchors,
)
from anchorgae.convolution import (
    EncoderParams,
    ForwardCache,
    apply_anchor_adjacency,
    conv_forward_anchors,
    conv_forward_samples,
    init_params,
    pool_t,
)
from anchorgae.numerics import make_rng, row_blocks
from anchorgae.pipeline import AnchorGaeConfig
from anchorgae.training import (
    TrainingDiverged,
    backward,
    decode,
    loss,
    train,
    _branch_grads,
    _decoder_grads,
    decode_on_support,
)
from oracles import (
    adam_step_expression,
    aggregated_anchor_grads,
    aggregated_forward,
    aggregated_sample_grads,
    apply_sample_adjacency,
    copy_params,
    entropy,
    factored_anchor_adjacency,
    first_layer_inputs,
    numerical_grads,
    on_support,
    peak_bytes,
    random_bench_graph,
    whole_matrix_decode,
    whole_matrix_decoder_grads,
    whole_matrix_loss,
)


def random_instance(rng, n=12, m=4, k=2, dims=(5, 4, 3)):
    idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
    idx[:m, 0] = np.arange(m)
    fixed = []
    for row in idx:
        if len(set(row.tolist())) < k:
            row = np.array(sorted(set(row.tolist()))[:k])
            while len(row) < k:
                row = np.append(row, (row[-1] + 1) % m)
        fixed.append(np.asarray(row))
    idx = np.stack(fixed)
    w = rng.random((n, k)) + 0.05
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, m)
    x = rng.normal(size=(n, dims[0]))
    c = rng.normal(size=(m, dims[0]))
    params = init_params(list(dims), rng)
    return g, x, c, params


# ----------------------------------------------------------------- decode

def test_decode_equal_distances_uniform():
    z = np.zeros((3, 2))
    z_t = np.tile(np.array([[1.0, 0.0]]), (4, 1))  # all distance 1
    q = decode(z, z_t)
    assert np.allclose(q, 0.25)


def test_decode_hand_case_two_anchors():
    # distances (0, ln 2) -> exp(0)=1, exp(-ln 2)=1/2 -> (2/3, 1/3)
    z = np.array([[0.0]])
    z_t = np.array([[0.0], [np.sqrt(np.log(2.0))]])
    q = decode(z, z_t)
    assert np.max(np.abs(q - np.array([[2 / 3, 1 / 3]]))) < 1e-12


def test_decode_translation_invariance():
    rng = make_rng(50)
    z = rng.normal(size=(6, 3))
    z_t = rng.normal(size=(4, 3))
    shift = rng.normal(size=3) * 10
    q1 = decode(z, z_t)
    q2 = decode(z + shift, z_t + shift)
    assert np.max(np.abs(q1 - q2)) < 1e-12


def test_decode_rows_sum_to_one():
    rng = make_rng(51)
    q = decode(rng.normal(size=(20, 5)) * 30, rng.normal(size=(7, 5)) * 30)
    assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-10
    assert (q >= 0).all()


def test_decode_dim_mismatch():
    with pytest.raises(ValueError, match="embedding dims"):
        decode(np.zeros((2, 3)), np.zeros((2, 4)))


# ------------------------------------------------------------------- loss

def test_loss_uniform_pair_is_ln2():
    g = AnchorGraph(np.array([[0, 1]]), np.array([[0.5, 0.5]]), 2)
    q = np.array([[0.5, 0.5]])
    assert abs(loss(g, on_support(g, q)) - np.log(2.0)) < 1e-12


def test_loss_one_hot_limit_tends_to_zero():
    g = AnchorGraph(np.array([[0, 1], [1, 0]]),
                    np.array([[1.0, 0.0], [1.0, 0.0]]), 2)
    q = np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]])
    value = loss(g, on_support(g, q))
    assert 0.0 < value < 1e-11


def test_loss_gibbs_inequality():
    rng = make_rng(52)
    for _ in range(10):
        n, m, k = 6, 5, 3
        idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
        w = rng.random((n, k))
        w /= w.sum(axis=1, keepdims=True)
        g = AnchorGraph(idx, w, m)
        q = rng.random((n, m)) + 1e-3
        q /= q.sum(axis=1, keepdims=True)
        h = sum(entropy(row) for row in w)
        assert loss(g, on_support(g, q)) >= h - 1e-12
        # equality iff the reconstruction matches p exactly
        q_exact = g.csr().toarray()
        q_exact[q_exact == 0] = 1e-300
        assert abs(loss(g, on_support(g, q_exact)) - h) < 1e-9


def test_loss_underflow_clamps_and_warns():
    g = AnchorGraph(np.array([[0, 1]]), np.array([[0.7, 0.3]]), 2)
    q = np.array([[0.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="clamp"):
        value = loss(g, on_support(g, q))
    assert np.isfinite(value)


def test_loss_shape_check():
    g = AnchorGraph(np.array([[0, 1]]), np.array([[0.5, 0.5]]), 2)
    with pytest.raises(ValueError, match="expected"):
        loss(g, np.ones((2, 2)))


# --------------------------------------------------------------- backward

# The decoder's rule constant forcing each pass: k sqrt(m) <= 0 never
# holds, k sqrt(m) <= inf always does.
PASSES = {"dense": 0, "factored": np.inf}


def each_pass(monkeypatch):
    """Yield each decoder pass's name with the rule forced to pick it."""
    for name, bound in PASSES.items():
        monkeypatch.setattr(training, "FACTORED_K_ROOT_M_PER_WIDTH", bound)
        yield name


def sample_branch_grads(g, cache, params, grad_z):
    return _branch_grads(cache, params, g.bt_dot(grad_z), g.bt_dot,
                         lambda h: pool_t(g, h))


def test_backward_zero_at_exact_reconstruction(monkeypatch):
    rng = make_rng(53)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    cache_s = conv_forward_samples(g, p0, params)
    cache_a = conv_forward_anchors(g, a0, params)
    q = g.csr().toarray()  # q identical to p => residual vanishes

    for _ in each_pass(monkeypatch):
        done = [0]

        def exact_block(block, *_):
            # Stands in for the dense pass's block decoder, decode.
            rows = slice(done[0], done[0] + block.shape[0])
            done[0] = rows.stop
            return q[rows].copy()

        def exact_exp_block(logits, support):
            # Stands in for the factored pass's _exp_block: exponentials
            # equal to q, with unit row sums.
            e = exact_block(logits)
            return e, np.ones(e.shape[0]), np.take_along_axis(e, support, 1)

        monkeypatch.setattr(training, "decode", exact_block)
        monkeypatch.setattr(training, "_exp_block", exact_exp_block)
        grads, _ = backward(g, cache_s, cache_a, params)
        assert done[0] == g.n
        for grad in grads:
            assert np.max(np.abs(grad)) < 1e-12


def test_backward_matches_central_differences(monkeypatch):
    rng = make_rng(54)
    for trial in range(3):
        g, x, c, params = random_instance(rng)
        p0, a0 = first_layer_inputs(g, x, c)
        cache_s = conv_forward_samples(g, p0, params)
        cache_a = conv_forward_anchors(g, a0, params)

        def value():
            z2 = g.b_dot(conv_forward_samples(g, p0, params).top)
            zt2 = conv_forward_anchors(g, a0, params).top
            return loss(g, on_support(g, decode(z2, zt2)))

        refs = numerical_grads(value, params)
        for _ in each_pass(monkeypatch):
            grads, _ = backward(g, cache_s, cache_a, params)
            for analytic, ref in zip(grads, refs):
                scale = np.maximum(np.abs(analytic) + np.abs(ref), 1e-8)
                assert np.max(np.abs(analytic - ref) / scale) < 1e-4


def test_branch_backprop_linear_in_upstream():
    rng = make_rng(55)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    cache_s = conv_forward_samples(g, p0, params)
    upstream = rng.normal(size=(g.n, cache_s.top.shape[1]))
    g1 = sample_branch_grads(g, cache_s, params, upstream)
    g2 = sample_branch_grads(g, cache_s, params, 3.0 * upstream)
    ref = aggregated_sample_grads(g, x, params, upstream)
    for a, b, r in zip(g1, g2, ref):
        assert np.max(np.abs(3.0 * a - b)) < 1e-12
        assert np.max(np.abs(a - r)) < 1e-12


def test_backward_sums_both_siamese_branches():
    rng = make_rng(56)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    cache_s = conv_forward_samples(g, p0, params)
    z = g.b_dot(cache_s.top)
    cache_a = conv_forward_anchors(g, a0, params)
    z_t = cache_a.top
    q = decode(z, z_t)
    total, _ = backward(g, cache_s, cache_a, params)

    resid = -q.copy()
    resid[np.arange(g.n)[:, None], g.indices] += g.weights
    grad_z = -2.0 * (resid @ z_t)
    grad_zt = -2.0 * (resid.T @ z) + 2.0 * resid.sum(axis=0)[:, None] * z_t
    only_s = aggregated_sample_grads(g, x, params, grad_z)
    only_a = aggregated_anchor_grads(g, c, params, grad_zt)
    for t, s, a in zip(total, only_s, only_a):
        assert np.max(np.abs(t - (s + a))) < 1e-12
        assert np.max(np.abs(s)) > 0  # both branches actually contribute
        assert np.max(np.abs(a)) > 0


def test_backward_rejects_stale_cache():
    rng = make_rng(57)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    cache_s = conv_forward_samples(g, p0, params)
    cache_a = conv_forward_anchors(g, a0, params)
    bigger = init_params([5, 4, 3, 3], make_rng(58))
    with pytest.raises(ValueError, match="cache"):
        backward(g, cache_s, cache_a, bigger)


# ------------------------------------------------------- blocked decoder

def single_row_instance(rng, dims=(5, 4, 3)):
    g = AnchorGraph(np.array([[1, 0]]), np.array([[0.3, 0.7]]), 2)
    return (g, rng.normal(size=(1, dims[0])), rng.normal(size=(2, dims[0])),
            init_params(list(dims), rng))


def assert_close(value, ref, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(np.asarray(value) - ref)) <= tol * scale


# Rows per block: 1, 7 (does not divide n=23), n=23 and 40 (one block).
@pytest.mark.parametrize("rows_per_block", [1, 7, 23, 40])
@pytest.mark.parametrize("n", [23, 1])
def test_blocked_pass_matches_whole_matrix_oracle(monkeypatch, n,
                                                  rows_per_block):
    rng = make_rng(66)
    if n == 1:
        g, x, c, params = single_row_instance(rng)
    else:
        g, x, c, params = random_instance(rng, n=n, m=6, k=3)
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", rows_per_block * g.m)
    blocks = list(row_blocks(g.n, g.m))
    assert len(blocks) == -(-g.n // rows_per_block)
    assert np.array_equal(np.concatenate([np.arange(g.n)[b] for b in blocks]),
                          np.arange(g.n))

    p0, a0 = first_layer_inputs(g, x, c)
    cache_s = conv_forward_samples(g, p0, params)
    z = g.b_dot(cache_s.top)
    cache_a = conv_forward_anchors(g, a0, params)
    z_t = cache_a.top
    # The cache holds y, the top m-row product; z = B y.
    assert np.array_equal(cache_s.top, cache_s.inputs[-1] @ params.layers[-1])
    ref_z, ref_zt, ref_q = whole_matrix_decoder_grads(g, z, z_t)
    assert_close(decode_on_support(g, z, z_t), on_support(g, ref_q))
    ref_s = aggregated_sample_grads(g, x, params, ref_z)
    ref_a = aggregated_anchor_grads(g, c, params, ref_zt)

    for _ in each_pass(monkeypatch):
        grad_y, grad_zt, q_sup = _decoder_grads(g, cache_s, z_t)
        assert_close(grad_y, g.bt_dot(ref_z))
        assert_close(grad_zt, ref_zt)
        assert_close(q_sup, on_support(g, ref_q))

        grads, q_sup = backward(g, cache_s, cache_a, params)
        for grad, s, a in zip(grads, ref_s, ref_a):
            assert_close(grad, s + a)
        assert_close(q_sup, on_support(g, ref_q))
        assert_close(loss(g, q_sup), whole_matrix_loss(g, ref_q))


# Anchor embeddings near y at `scale`. At scale 30 every logit of a row
# that spreads its weight, its support included, lies thousands below 0,
# where exp underflows to 0 unless _exp_block shifts the row by its max;
# rows 0-4, with 0.998 of their weight on one anchor, stay above the guard.
@pytest.mark.parametrize("scale, guard_fires", [(1.0, False), (30.0, True)],
                         ids=["normal", "guard-fires"])
def test_factored_pass_matches_whole_matrix_oracle(monkeypatch, scale,
                                                   guard_fires):
    rng = make_rng(74)
    g = random_bench_graph(23, 6, 3, rng)
    weights = g.weights.copy()
    weights[:5] = [0.998, 0.001, 0.001]
    g = AnchorGraph(g.indices, weights, g.m)
    y = scale * rng.normal(size=(g.m, 3))
    z_t = y + 0.1 * scale * rng.normal(size=y.shape)
    ref_z, ref_zt, ref_q = whole_matrix_decoder_grads(g, g.b_dot(y), z_t)

    blocks = training._factored_blocks(g)
    grad_y, grad_zt, q_sup = training._factored_decoder_grads(g, y, z_t,
                                                              blocks)
    for value in (grad_y, grad_zt, q_sup):
        assert np.isfinite(value).all()
    assert_close(grad_y, g.bt_dot(ref_z))
    assert_close(grad_zt, ref_zt)
    assert_close(q_sup, on_support(g, ref_q))

    # Without the guard the normal instance gives the same bits, and the
    # other one underflows every exponential of a row to 0.
    monkeypatch.setattr(training, "SHIFT_GUARD_LOGIT", -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, unguarded = training._factored_decoder_grads(g, y, z_t, blocks)
    if guard_fires:
        assert np.isfinite(unguarded[:5]).all()
        assert not np.isfinite(unguarded[5:]).all(axis=1).any()
    else:
        assert np.array_equal(unguarded, q_sup)


def test_decode_in_place_softmax_same_bits_as_oracle():
    rng = make_rng(67)
    z = rng.normal(size=(300, 16)) * 5
    z_t = rng.normal(size=(90, 16)) * 5
    assert np.array_equal(decode(z, z_t), whole_matrix_decode(z, z_t))


def test_underflow_warns_once_per_call_across_blocks(monkeypatch):
    # Every row but the last sits on anchor 0, the last on anchor 2; each
    # row's support holds the other two anchors, so far away that q
    # underflows to exactly 0 there, in each block (1 row on the dense
    # side, m = 3 rows on the factored side).
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 1)
    n = 5
    idx = np.tile([1, 2], (n, 1))
    idx[-1] = [0, 1]
    g = AnchorGraph(idx, np.full((n, 2), 0.5), 3)
    cache_s = ForwardCache([], [], np.array([[400.0], [0.0], [0.0]]))
    assert np.array_equal(g.b_dot(cache_s.top)[:, 0],
                          [0.0, 0.0, 0.0, 0.0, 200.0])
    z_t = np.array([[0.0], [100.0], [200.0]])
    for _ in each_pass(monkeypatch):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, q_sup = _decoder_grads(g, cache_s, z_t)
            value = loss(g, q_sup)
        assert (q_sup == 0.0).all()
        assert np.isfinite(value)
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == [
            "reconstruction underflowed to 0 on the graph support; "
            "clamping before the log"]


@pytest.mark.parametrize("width, factored", [(16, True), (15, False)],
                         ids=["at-bound-factored", "below-bound-dense"])
def test_rule_picks_pass_at_boundary(monkeypatch, width, factored):
    # k sqrt(m) = 7 * 8 = FACTORED_K_ROOT_M_PER_WIDTH * 16: width 16 sits on
    # the bound and takes the factored pass, width 15 the dense pass, which
    # alone calls decode.
    assert training.FACTORED_K_ROOT_M_PER_WIDTH * 16 == 7 * 8
    rng = make_rng(72)
    g, x, c, params = random_instance(rng, n=70, m=64, k=7,
                                      dims=(5, 4, width))
    p0, a0 = first_layer_inputs(g, x, c)
    cache_s = conv_forward_samples(g, p0, params)
    cache_a = conv_forward_anchors(g, a0, params)
    calls = []
    real_decode = training.decode
    monkeypatch.setattr(training, "decode",
                        lambda *args: calls.append(1) or real_decode(*args))
    grads, _ = backward(g, cache_s, cache_a, params)
    assert (not calls) == factored
    ref_z, ref_zt, _ = whole_matrix_decoder_grads(g, g.b_dot(cache_s.top),
                                                  cache_a.top)
    ref_s = aggregated_sample_grads(g, x, params, ref_z)
    ref_a = aggregated_anchor_grads(g, c, params, ref_zt)
    for grad, s, a in zip(grads, ref_s, ref_a):
        assert_close(grad, s + a)


def test_train_nan_embeddings_raise_diverged(monkeypatch):
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 1)
    rng = make_rng(68)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    params.layers[0][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(g, p0, a0, params, 3, 1e-3, "adam")


def test_blocked_pass_holds_no_sample_by_anchor_array():
    n, m, k = 6000, 300, 5
    rng = make_rng(69)
    idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
    idx[:m, 0] = np.arange(m)
    w = rng.random((n, k)) + 0.05
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, m)
    x = rng.normal(size=(n, 4))
    c = rng.normal(size=(m, 4))
    n_by_m_bytes = n * m * 8
    # Embedding width 2 takes the dense pass, width 64 the factored one.
    for dims, factored in (([4, 3, 2], False), ([4, 8, 64], True)):
        assert training._factored(g, dims[-1]) == factored
        params = init_params(dims, rng)
        p0, a0 = first_layer_inputs(g, x, c)
        cache_s = conv_forward_samples(g, p0, params)
        z = g.b_dot(cache_s.top)
        cache_a = conv_forward_anchors(g, a0, params)
        z_t = cache_a.top

        assert peak_bytes(lambda: backward(g, cache_s, cache_a, params)) \
            < n_by_m_bytes
        assert peak_bytes(lambda: decode_on_support(g, z, z_t)) \
            < n_by_m_bytes
        assert peak_bytes(lambda: train(g, *first_layer_inputs(g, x, c),
                                        params, 2, 1e-3, "adam")) \
            < n_by_m_bytes


@pytest.mark.parametrize(
    "m, k, d_in, factored, bound",
    [(200, 3, 64, True, 2.0), (256, 17, 16, False, 2.5)],
    ids=["factored", "dense"])
def test_train_holds_one_sample_array_per_hidden_layer(monkeypatch, m, k, d_in,
                                                       factored, bound):
    # Widths h0 = 128, e = 64. An epoch's cache holds the hidden layer's
    # ReLU mask (an n x h0 bool, 1/8 of an n x h0 array); its activation
    # is freed once pooled, and backprop forms the gradient through it. The
    # factored pass never spreads y into the n x e embedding z, the dense
    # pass does so once per epoch. The previous epoch's caches are gone
    # before the next forward pass. The peaks read 1.82 (factored) and
    # 2.34 (dense) n x h0 arrays; the bounds leave 0.18 and 0.16 of margin.
    n, dims, epochs = 3000, [d_in, 128, 64], 2
    rng = make_rng(73)
    g = random_bench_graph(n, m, k, rng)
    assert training._factored(g, dims[-1]) == factored
    params = init_params(dims, rng)
    p0, a0 = first_layer_inputs(g, rng.random((n, d_in)),
                                rng.random((m, d_in)))
    spreads = []
    b_dot = g.b_dot
    monkeypatch.setattr(g, "b_dot",
                        lambda y: spreads.append(y.shape[1]) or b_dot(y))
    peak = peak_bytes(lambda: train(g, p0, a0, params, epochs, 1e-3, "adam"))
    assert peak < bound * n * dims[1] * 8
    assert spreads.count(dims[-1]) == (0 if factored else epochs)
    assert spreads.count(dims[1]) == 2 * epochs


def test_graph_fit_holds_one_sample_by_anchor_array(monkeypatch):
    # One n x m array lives at a time, the distances: the previous ones
    # are freed before the distance call, which forms its result in the
    # product's buffer, and the distance call's norm sums and the row
    # solve's temporaries are one row block each.
    n, m = 6000, 300
    rng = make_rng(70)
    x = rng.normal(size=(n, 8))
    anchors = init_anchors(x, m, rng)
    monkeypatch.setattr("anchorgae.anchor_graph.FIT_MAX_ITERS", 3)
    cfg = ConnectivitySolveConfig(k=5)
    assert peak_bytes(lambda: fit_anchor_graph(x, anchors, cfg)) \
        < 1.3 * n * m * 8


def test_train_calls_loss_once_per_epoch(monkeypatch):
    monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 1)
    calls = []
    real_loss = training.loss

    def counting_loss(g, q_sup):
        calls.append(q_sup.shape)
        return real_loss(g, q_sup)

    monkeypatch.setattr(training, "loss", counting_loss)
    rng = make_rng(70)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    train(g, p0, a0, params, 4, 1e-3, "adam")
    assert calls == [(g.n, g.k)] * 4


# ------------------------------------------------------------------ train

def test_train_zero_learning_rate_is_noop():
    rng = make_rng(59)
    g, x, c, params = random_instance(rng)
    p0, a0 = first_layer_inputs(g, x, c)
    before = [w.copy() for w in params.layers]
    trace = train(g, p0, a0, params, 5, 0.0, "gd")
    for w, orig in zip(params.layers, before):
        assert np.array_equal(w, orig)
    assert np.allclose(trace, trace[0])


def test_train_gd_descends_on_smooth_instance():
    rng = make_rng(60)
    g, x, c, params = random_instance(rng, n=20, m=5, k=2)
    p0, a0 = first_layer_inputs(g, x, c)
    trace = train(g, p0, a0, params, 40, 1e-3, "gd")
    assert trace[-1] < trace[0]
    head = trace[:10]
    assert all(b <= a + 1e-9 for a, b in zip(head, head[1:]))


def test_train_adam_reduces_loss():
    rng = make_rng(61)
    g, x, c, params = random_instance(rng, n=25, m=6, k=2)
    p0, a0 = first_layer_inputs(g, x, c)
    trace = train(g, p0, a0, params, 60, 1e-3, "adam")
    assert trace[-1] < trace[0]
    assert (trace >= 0).all() and np.isfinite(trace).all()


def test_train_deterministic_given_seed():
    def one_run():
        rng = make_rng(62)
        g, x, c, params = random_instance(rng)
        p0, a0 = first_layer_inputs(g, x, c)
        trace = train(g, p0, a0, params, 15, 1e-3, "adam")
        return trace, [w.copy() for w in params.layers]

    t1, w1 = one_run()
    t2, w2 = one_run()
    assert np.array_equal(t1, t2)
    for a, b in zip(w1, w2):
        assert np.array_equal(a, b)


def test_train_aborts_on_divergence_naming_epoch():
    rng = make_rng(63)
    g, x, c, params = random_instance(rng, dims=(5, 3))
    p0, a0 = first_layer_inputs(g, x, c)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(g, p0, a0, params, 50, 1e160, "gd")


def reaggregating_train(g, x, c, params, epochs, learning_rate):
    """The adam loop of train by the aggregate-then-multiply order,
    aggregating x and c afresh every epoch."""
    beta1, beta2 = training.ADAM_BETA1, training.ADAM_BETA2
    trace = []
    adam_m = [np.zeros_like(w) for w in params.layers]
    adam_v = [np.zeros_like(w) for w in params.layers]
    for epoch in range(epochs):
        z, _, _ = aggregated_forward(g, x, params, apply_sample_adjacency)
        z_t, _, _ = aggregated_forward(g, c, params, factored_anchor_adjacency)
        grad_z, grad_zt, q = whole_matrix_decoder_grads(g, z, z_t)
        grads = [s + a for s, a in zip(
            aggregated_sample_grads(g, x, params, grad_z),
            aggregated_anchor_grads(g, c, params, grad_zt))]
        trace.append(whole_matrix_loss(g, q))
        t = epoch + 1
        for w, grad, m1, v1 in zip(params.layers, grads, adam_m, adam_v):
            m1[...] = beta1 * m1 + (1.0 - beta1) * grad
            v1[...] = beta2 * v1 + (1.0 - beta2) * grad * grad
            m_hat = m1 / (1.0 - beta1 ** t)
            v_hat = v1 / (1.0 - beta2 ** t)
            w -= learning_rate * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
    return np.array(trace)


def test_adam_step_matches_expression_oracle():
    # In place, with the fresh gradient as scratch, and bit for bit the
    # whole-array expression, over steps whose gradients span many scales.
    rng = make_rng(76)
    for shape in ((784, 128), (5, 3)):
        w = rng.normal(size=shape)
        m1, v1 = np.zeros(shape), np.zeros(shape)
        ref_w, ref_m1, ref_v1 = w.copy(), m1.copy(), v1.copy()
        for t in range(1, 7):
            grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 3, shape)
            adam_step_expression(ref_w, grad.copy(), ref_m1, ref_v1, 1e-3, t)
            training._adam_step(w, grad, m1, v1, 1e-3, t)
            assert np.array_equal(w, ref_w)
            assert np.array_equal(m1, ref_m1)
            assert np.array_equal(v1, ref_v1)


def test_train_hoisted_aggregates_match_reaggregating_loop():
    rng = make_rng(65)
    g, x, c, params = random_instance(rng, n=30, m=6, k=3)
    p0, a0 = first_layer_inputs(g, x, c)
    ref_params = copy_params(params)
    trace = train(g, p0, a0, params, 3, 1e-2, "adam")
    ref_trace = reaggregating_train(g, x, c, ref_params, 3, 1e-2)
    assert np.max(np.abs(trace - ref_trace)) < 1e-10
    for w, ref in zip(params.layers, ref_params.layers):
        assert np.max(np.abs(w - ref)) < 1e-10


def test_train_allocates_no_sample_by_input_array():
    # x is pooled onto the anchors, inside the measured call, before any
    # dense product, so no n x d_0 array (25 MB here) is formed, in the
    # cache or anywhere.
    # The hidden layers are narrow, so that all the n x d_l arrays live at
    # once stay well below one n x d_0 array.
    n, m, d = 4000, 200, 784
    rng = make_rng(71)
    g = random_bench_graph(n, m, 5, rng)
    x = rng.random((n, d))
    c = rng.random((m, d))
    params = init_params([d, 32, 16], rng)
    assert peak_bytes(lambda: train(g, g.pool(x), apply_anchor_adjacency(g, c),
                                    params, 2, 1e-3, "adam")) \
        < n * d * 8


def test_train_config_validation():
    # The training settings are checked by the run config, their one home.
    with pytest.raises(ValueError, match="inner_epochs must be >= 1, got 0"):
        AnchorGaeConfig(clusters=2, inner_epochs=0)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            AnchorGaeConfig(clusters=2, learning_rate=bad)
    with pytest.raises(ValueError, match="optimizer must be 'gd' or 'adam'"):
        AnchorGaeConfig(clusters=2, optimizer="sgd")
    AnchorGaeConfig(clusters=2, learning_rate=0.0)  # no-op steps are allowed
