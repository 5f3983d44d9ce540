import warnings

import numpy as np
import pytest

from anchorgae import anchor_graph, numerics
from anchorgae.anchor_graph import (
    FIT_MAX_ITERS,
    FIT_TOL,
    AnchorGraph,
    ConnectivitySolveConfig,
    _solve_rows,
    fit_anchor_graph,
    init_anchors,
    update_anchors,
)
from anchorgae.numerics import make_rng, pairwise_sq_dist
from oracles import (
    dense_adjacencies,
    gamma_from_sparsity,
    normalize_anchor_side,
    projected_gradient_row,
    row_objective,
    solve_connectivity_row,
    sorted_rows,
)


def two_clouds(n_per=20, gap=10.0, d=3, seed=0):
    rng = make_rng(seed)
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + gap
    return np.vstack([a, b])


# ---------------------------------------------------------------- anchors

def test_init_anchors_full_sample_is_permutation():
    x = make_rng(1).normal(size=(7, 2))
    anchors = init_anchors(x, 7, make_rng(2))
    assert sorted(map(tuple, anchors)) == sorted(map(tuple, x))


def test_init_anchors_single():
    x = make_rng(3).normal(size=(5, 2))
    anchors = init_anchors(x, 1, make_rng(4))
    assert any(np.array_equal(anchors[0], row) for row in x)


def test_init_anchors_deterministic():
    x = make_rng(5).normal(size=(30, 4))
    a = init_anchors(x, 6, make_rng(9))
    b = init_anchors(x, 6, make_rng(9))
    assert np.array_equal(a, b)


def test_init_anchors_rejects_m_above_n():
    with pytest.raises(ValueError, match="1 <= m <= n"):
        init_anchors(np.zeros((3, 2)), 4, make_rng(0))


# ----------------------------------------------------------- row solving

def test_row_hand_case():
    # boundary distance 3, numerators (2, 1), denominator 3
    row = solve_connectivity_row(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.allclose(row, [2 / 3, 1 / 3, 0.0, 0.0])


def test_row_full_tie_uniform_fallback():
    row = solve_connectivity_row(np.array([5.0, 5.0, 5.0, 5.0]), 2)
    assert np.allclose(row, [0.5, 0.5, 0.0, 0.0])


def test_row_matches_projected_gradient_oracle():
    rng = make_rng(21)
    for _ in range(20):
        m = int(rng.integers(4, 30))
        k = int(rng.integers(1, min(m - 1, 8) + 1))
        dists = rng.random(m) * 10.0
        ours = solve_connectivity_row(dists, k)
        ref = projected_gradient_row(dists, k)
        assert np.max(np.abs(ours - ref)) < 1e-6


def test_row_objective_not_above_oracle_value():
    rng = make_rng(22)
    for _ in range(10):
        m = int(rng.integers(5, 20))
        k = int(rng.integers(1, 5))
        dists = rng.random(m) * 3.0
        gamma = gamma_from_sparsity(dists, k)
        ours = row_objective(solve_connectivity_row(dists, k), dists, gamma, m)
        ref = row_objective(projected_gradient_row(dists, k), dists, gamma, m)
        assert ours <= ref + 1e-9


def test_row_sparsity_and_normalization():
    rng = make_rng(23)
    for _ in range(25):
        m = int(rng.integers(3, 40))
        k = int(rng.integers(1, m))
        row = solve_connectivity_row(rng.random(m), k)
        assert np.count_nonzero(row) <= k
        assert (row >= 0).all() and (row <= 1).all()
        assert abs(row.sum() - 1.0) < 1e-10


def test_row_scale_equivariance():
    rng = make_rng(24)
    dists = rng.random(12)
    for k in (1, 3, 5):
        base = solve_connectivity_row(dists, k)
        scaled = solve_connectivity_row(dists * 37.5, k)
        assert np.max(np.abs(base - scaled)) < 1e-12


def test_row_ties_broken_by_index():
    row = solve_connectivity_row(np.array([2.0, 1.0, 1.0, 1.0, 5.0]), 2)
    # three tied nearest: lowest-index pair {1, 2} wins, boundary also at 1
    assert row[1] == row[2] == 0.5
    assert row[0] == row[3] == row[4] == 0.0


def test_rows_match_full_stable_sort_on_ties(monkeypatch):
    def check(dists, k, uniform=False):
        support, weights, gamma, d_sup = _solve_rows(dists, k,
                                                     uniform=uniform)
        ref_support, ref_weights, ref_gamma, ref_d_sup = sorted_rows(dists, k)
        if uniform:
            ref_weights = np.full_like(ref_weights, 1.0 / k)
        for a, b in ((support, ref_support), (weights, ref_weights),
                     (gamma, ref_gamma), (d_sup, ref_d_sup)):
            assert np.array_equal(a, b), (dists.shape, k, uniform)

    rng = make_rng(25)
    shapes = [(1, 2), (1, 7), (6, 2)] + [
        (int(rng.integers(1, 40)), int(rng.integers(2, 16)))
        for _ in range(300)]
    for n, m in shapes:
        dists = rng.integers(0, 4, size=(n, m)).astype(float)
        for k in {1, m - 1, int(rng.integers(1, m))}:
            check(dists, k)
            check(dists, k, uniform=True)
    # Every entry of a row tied, next to rows with no tie at all.
    for m in (2, 5, 12):
        dists = np.vstack([np.full((3, m), 2.5), rng.random((3, m)),
                           np.zeros((2, m))])
        for k in range(1, m):
            check(dists, k)
            check(dists, k, uniform=True)
    # Rows spread over several blocks, the last one partial.
    for rows_per_block in (1, 7, 23):
        for n, m in ((60, 9), (47, 3), (100, 16)):
            monkeypatch.setattr(numerics, "BLOCK_ENTRIES", rows_per_block * m)
            dists = rng.integers(0, 4, size=(n, m)).astype(float)
            for k in {1, m - 1, int(rng.integers(1, m))}:
                check(dists, k)


def test_rows_tie_straddling_the_boundary():
    # Row 0: three anchors tie at the (k+1)-th distance. Row 1: the tie
    # reaches into the support, so only the lowest-index tied anchor joins.
    dists = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0],
                      [2.0, 2.0, 1.0, 1.0, 0.0, 1.0]])
    support, weights, gamma, d_sup = _solve_rows(dists, 2)
    assert support.tolist() == [[1, 4], [4, 2]]
    assert d_sup.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    assert weights.tolist() == [[0.5, 0.5], [1.0, 0.0]]
    assert gamma.tolist() == [1.0, 0.5]


def test_row_rejects_bad_inputs():
    with pytest.raises(ValueError, match="1 <= k < m"):
        solve_connectivity_row(np.array([1.0, 2.0]), 2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_connectivity_row(np.array([1.0, -0.5]), 1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        solve_connectivity_row(np.array([1.0, np.nan]), 1)


# --------------------------------------------------------- anchor update

def test_update_anchors_unweighted_mean():
    g = AnchorGraph(np.array([[0], [0]]), np.array([[1.0], [1.0]]), 1)
    x = np.array([[0.0, 0.0], [2.0, 2.0]])
    assert np.allclose(update_anchors(x, g), [[1.0, 1.0]])


def test_update_anchors_identity_assignment():
    n = 5
    g = AnchorGraph(np.arange(n)[:, None], np.ones((n, 1)), n)
    x = make_rng(26).normal(size=(n, 3))
    assert np.allclose(update_anchors(x, g), x)


def test_update_anchors_matches_loop_oracle():
    rng = make_rng(27)
    n, m, k, d = 12, 5, 2, 3
    idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
    w = rng.random((n, k))
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, m)
    x = rng.normal(size=(n, d))
    expected = np.zeros((m, d))
    mass = np.zeros(m)
    for i in range(n):
        for t in range(k):
            expected[idx[i, t]] += w[i, t] * x[i]
            mass[idx[i, t]] += w[i, t]
    expected /= mass[:, None]
    assert np.max(np.abs(update_anchors(x, g) - expected)) < 1e-12
    assert np.array_equal(update_anchors(x, g), g.pool(x))


def test_graph_rejects_dead_anchors():
    with pytest.raises(ValueError, match=r"anchors \[1, 2\] have zero degree"):
        # anchors 1 and 2 never referenced
        AnchorGraph(np.array([[0], [0]]), np.array([[1.0], [1.0]]), 3)
    idx = np.array([[0, 1], [0, 1]])
    with pytest.raises(ValueError, match=r"anchors \[1\] have zero degree"):
        # degree 1e-13, below the tolerance
        AnchorGraph(idx, np.array([[1.0, 0.0], [1.0 - 1e-13, 1e-13]]), 2)
    g = AnchorGraph(idx, np.array([[1.0, 0.0], [1.0 - 1e-11, 1e-11]]), 2)
    assert np.allclose(g.delta, [2.0 - 1e-11, 1e-11], rtol=0, atol=1e-20)


# ------------------------------------------------------------------ fit

def test_fit_separates_two_clouds():
    x = two_clouds()
    anchors0 = np.vstack([x[0], x[20]])
    g = fit_anchor_graph(x, anchors0, ConnectivitySolveConfig(k=1))
    b = g.csr().toarray()
    # brute force over the two possible anchor assignments per sample
    d = pairwise_sq_dist(x, g.pool(x))
    for i in range(40):
        assert b[i, d[i].argmin()] == 1.0
    assert b[:20, :].argmax(axis=1).std() == 0  # one cloud, one anchor
    assert b[20:, :].argmax(axis=1).std() == 0


def test_fit_self_anchors_fixed_point():
    x = make_rng(31).normal(size=(6, 2)) * 5
    g = fit_anchor_graph(x, x, ConnectivitySolveConfig(k=1))
    assert np.allclose(g.csr().toarray(), np.eye(6))


def test_fit_rows_sum_to_one_with_k_support():
    rng = make_rng(32)
    x = rng.normal(size=(50, 4))
    g = fit_anchor_graph(x, init_anchors(x, 8, rng),
                         ConnectivitySolveConfig(k=3))
    assert np.max(np.abs(g.weights.sum(axis=1) - 1.0)) < 1e-10
    assert g.indices.shape == (50, 3)
    for row in g.indices:
        assert len(set(row.tolist())) == 3
    assert np.max(np.abs(g.delta - g.csr().toarray().sum(axis=0))) < 1e-10
    assert (g.delta > 0).all()


def test_fit_per_step_descent_guarantees():
    """Each half-step of the alternation is optimal: the row solve cannot be
    beaten by the previous rows at the distances it saw, and the anchor move
    never increases the assignment cost."""
    rng = make_rng(33)
    for trial in range(5):
        x = rng.normal(size=(60, 3)) * rng.uniform(0.5, 2.0)
        if trial % 2:
            x[:30] += 5.0
        hist = []
        fit_anchor_graph(x, init_anchors(x, 7, rng),
                         ConnectivitySolveConfig(k=2), history=hist)
        m = 7
        for prev, cur in zip(hist, hist[1:]):
            d = pairwise_sq_dist(x, cur["anchors_in"])
            gammas = np.array([gamma_from_sparsity(d[i], 2) for i in range(60)])

            def total(entry):
                val = 0.0
                for i in range(60):
                    p = np.zeros(m)
                    p[entry["indices"][i]] = entry["weights"][i]
                    val += row_objective(p, d[i], gammas[i], m)
                return val

            assert total(cur) <= total(prev) + 1e-9 * max(abs(total(prev)), 1.0)
        for prev, cur in zip(hist, hist[1:]):
            # anchor step: same rows, distances to updated anchors shrink
            d_prev = pairwise_sq_dist(x, prev["anchors_in"])
            d_new = pairwise_sq_dist(x, cur["anchors_in"])
            cost_prev = float((prev["weights"] *
                               np.take_along_axis(d_prev, prev["indices"], 1)).sum())
            cost_new = float((prev["weights"] *
                              np.take_along_axis(d_new, prev["indices"], 1)).sum())
            assert cost_new <= cost_prev + 1e-9 * max(abs(cost_prev), 1.0)


def test_fit_objective_recomputed_by_oracle():
    rng = make_rng(34)
    x = rng.normal(size=(40, 3))
    hist = []
    fit_anchor_graph(x, init_anchors(x, 6, rng), ConnectivitySolveConfig(k=2),
                     history=hist)
    for entry in hist:
        d = pairwise_sq_dist(x, entry["anchors_in"])
        val = 0.0
        for i in range(40):
            p = np.zeros(6)
            p[entry["indices"][i]] = entry["weights"][i]
            val += row_objective(p, d[i], gamma_from_sparsity(d[i], 2), 6)
        assert abs(val - entry["objective"]) < 1e-9 * max(abs(val), 1.0)


def relative_changes(hist) -> np.ndarray:
    """|obj_t - obj_{t-1}| / |obj_{t-1}| for each recorded iteration t >= 1."""
    objs = np.array([entry["objective"] for entry in hist])
    return np.abs(np.diff(objs)) / np.abs(objs[:-1])


def test_fit_runs_to_the_cap_when_tolerance_never_fires():
    rng = make_rng(40)
    x = rng.normal(size=(300, 4))
    cfg = ConnectivitySolveConfig(k=3)
    hist = []
    g = fit_anchor_graph(x, init_anchors(x, 20, rng), cfg, history=hist)
    assert len(hist) == FIT_MAX_ITERS
    assert np.all(relative_changes(hist) >= FIT_TOL)  # no early stop was due
    assert np.array_equal(g.indices, hist[-1]["indices"])


def test_fit_stops_at_first_change_below_tolerance(monkeypatch):
    rng = make_rng(40)
    x = rng.normal(size=(300, 4))
    anchors0 = init_anchors(x, 20, rng)
    cfg = ConnectivitySolveConfig(k=3)
    full = []
    monkeypatch.setattr(anchor_graph, "FIT_MAX_ITERS", 30)
    monkeypatch.setattr(anchor_graph, "FIT_TOL", 1e-300)
    fit_anchor_graph(x, anchors0, cfg, history=full)
    tol = 1e-3
    # Change j compares iterations j and j + 1 (0-based), so the first
    # change below tol ends the loop after iteration j + 1.
    expected = int(np.flatnonzero(relative_changes(full) < tol)[0]) + 2
    assert 2 < expected < 30
    hist = []
    monkeypatch.setattr(anchor_graph, "FIT_TOL", tol)
    fit_anchor_graph(x, anchors0, cfg, history=hist)
    assert len(hist) == expected
    assert [h["objective"] for h in hist] == \
        [h["objective"] for h in full[:expected]]


def test_fit_uniform_rows_objective_monotone():
    """The unweighted (1/k) variant is a Lloyd-type alternation, so its
    assignment objective is non-increasing end to end."""
    rng = make_rng(35)
    for trial in range(5):
        x = rng.normal(size=(80, 4))
        hist = []
        fit_anchor_graph(x, init_anchors(x, 9, rng),
                         ConnectivitySolveConfig(k=3), uniform_rows=True,
                         history=hist)
        objs = [h["objective"] for h in hist]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9 * max(abs(a), 1.0)


def test_fit_uniform_rows_weights_flat():
    rng = make_rng(36)
    x = rng.normal(size=(30, 3))
    g = fit_anchor_graph(x, init_anchors(x, 6, rng),
                         ConnectivitySolveConfig(k=3), uniform_rows=True)
    assert np.allclose(g.weights, 1.0 / 3.0)


def test_fit_reseeds_dead_anchor():
    rng = make_rng(37)
    x = rng.normal(size=(25, 2))
    far = np.vstack([x[:2], [[500.0, 500.0]]])  # unreachable anchor
    g = fit_anchor_graph(x, far, ConnectivitySolveConfig(k=1))
    assert (g.delta > 0).all()
    assert np.max(np.abs(g.pool(x))) < 100.0  # pulled back into the data


def test_reseeding_fits_match_full_stable_sort(monkeypatch):
    # Anchors far outside the data: every fit re-seeds some of them.
    reseeds = []
    reseed = anchor_graph._reseed_dead_anchors

    def counting_reseed(*args):
        reseeds.append(1)
        reseed(*args)

    monkeypatch.setattr(anchor_graph, "_reseed_dead_anchors", counting_reseed)

    def fit(seed, k):
        rng = make_rng(seed)
        x = rng.normal(size=(80, 2))
        far = rng.normal(size=(10, 2)) + 40.0
        return x, fit_anchor_graph(x, far, ConnectivitySolveConfig(k=k))

    for seed in range(6):
        for k in (1, 2, 4):
            del reseeds[:]
            x, ours = fit(seed, k)
            assert reseeds, (seed, k)
            with monkeypatch.context() as patch:
                patch.setattr(anchor_graph, "_solve_rows",
                              lambda d, k, uniform=False: sorted_rows(d, k))
                _, ref = fit(seed, k)
            assert np.array_equal(ours.indices, ref.indices), (seed, k)
            assert np.array_equal(ours.weights, ref.weights), (seed, k)
            assert np.array_equal(ours.pool(x), ref.pool(x)), (seed, k)


# ----------------------------------------------- normalization / adjacency

def test_normalize_anchor_side_hand_case():
    g = AnchorGraph(np.array([[0, 1], [0, 1]]),
                    np.array([[1.0, 0.0], [0.5, 0.5]]), 2)
    out = normalize_anchor_side(g)
    assert np.allclose(g.delta, [1.5, 0.5])
    assert np.allclose(out, [[2 / 3, 1 / 3], [0.0, 1.0]])


def test_normalize_anchor_side_identity():
    g = AnchorGraph(np.arange(3)[:, None], np.ones((3, 1)), 3)
    assert np.allclose(normalize_anchor_side(g), np.eye(3))


def test_normalize_anchor_side_rows_sum_to_one():
    rng = make_rng(41)
    idx = np.stack([rng.choice(5, size=2, replace=False) for _ in range(20)])
    w = rng.random((20, 2))
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, 5)
    out = normalize_anchor_side(g)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-10


def test_dense_adjacency_identity_graph():
    g = AnchorGraph(np.arange(4)[:, None], np.ones((4, 1)), 4)
    assert np.allclose(g.b_dot(g.pool(np.eye(4))), np.eye(4))
    assert np.allclose(g.anchor_adjacency(), np.eye(4))


def test_dense_adjacency_row_stochastic_and_symmetric():
    rng = make_rng(42)
    for _ in range(5):
        n, m, k = 30, 6, 2
        idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
        idx[:m, 0] = np.arange(m)  # cover every anchor
        idx = np.stack([row if len(set(row.tolist())) == k
                        else np.array([row[0], (row[0] + 1) % m])
                        for row in idx])
        w = rng.random((n, k)) + 0.05
        w /= w.sum(axis=1, keepdims=True)
        g = AnchorGraph(idx, w, m)
        a, a_t = g.b_dot(g.pool(np.eye(n))), g.anchor_adjacency()
        assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(a_t.sum(axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(a - a.T)) < 1e-12
        _, a_ref, at_ref = dense_adjacencies(idx, w, m)
        assert np.max(np.abs(a - a_ref)) < 1e-12
        assert np.max(np.abs(a_t - at_ref)) < 1e-12


def test_dense_adjacency_three_row_example():
    g = AnchorGraph(np.array([[0, 1], [1, 0], [0, 1]]),
                    np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]), 2)
    a = g.b_dot(g.pool(np.eye(3)))
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(a - a.T)) < 1e-12


def test_graph_b_products_match_dense():
    rng = make_rng(43)
    idx = np.stack([rng.choice(7, size=3, replace=False) for _ in range(15)])
    w = rng.random((15, 3))
    w /= w.sum(axis=1, keepdims=True)
    g = AnchorGraph(idx, w, 7)
    b = g.csr().toarray()
    y = rng.normal(size=(7, 4))
    x = rng.normal(size=(15, 4))
    assert np.max(np.abs(g.b_dot(y) - b @ y)) < 1e-12
    assert np.max(np.abs(g.bt_dot(x) - b.T @ x)) < 1e-12


def test_fit_overflow_raises_without_numpy_warnings():
    x = make_rng(0).normal(size=(60, 3)) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            fit_anchor_graph(x, x[:10], ConnectivitySolveConfig(k=3))


def test_solve_config_validation():
    with pytest.raises(ValueError):
        ConnectivitySolveConfig(k=0)
