"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line and enforcing its stated tolerance and time budget.

The multi-seed clustering criteria share one session fixture so every run
is timed once and attributed to each criterion that depends on it.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from anchorgae.anchor_graph import (
    AnchorGraph,
    ConnectivitySolveConfig,
    fit_anchor_graph,
    init_anchors,
)
from anchorgae.clustering import kmeans, spectral_via_svd
from anchorgae.convolution import conv_forward_anchors, conv_forward_samples, init_params
from anchorgae.data_io import load_csv, make_blobs, minmax_scale
from anchorgae.metrics import acc, nmi
from anchorgae.numerics import make_rng
from anchorgae.pipeline import AnchorGaeConfig, run_anchorgae
from anchorgae.training import backward, decode, loss
from oracles import (
    brute_force_acc,
    dense_adjacencies,
    dense_gcn_forward,
    first_layer_inputs,
    numerical_grads,
    on_support,
    peak_bytes,
    projected_gradient_row,
    random_bench_graph,
    solve_connectivity_row,
)

pytestmark = pytest.mark.slow

BLOBS = dict(n=2000, d=16, c=4, separation=12.0)
BLOB_ANCHORS = 75


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)


# --------------------------------------------------------------------------
# shared end-to-end runs (criteria 8, 9, 11)

def _blob_run(mode: str, seed: int) -> dict:
    ds = make_blobs(BLOBS["n"], BLOBS["d"], BLOBS["c"], BLOBS["separation"],
                    make_rng(seed))
    x = minmax_scale(ds.x)
    config = AnchorGaeConfig(clusters=BLOBS["c"], anchors=BLOB_ANCHORS,
                             mode=mode, seed=seed)
    start = time.perf_counter()
    result = run_anchorgae(x, config)
    _, _, assignment = spectral_via_svd(result.graph, BLOBS["c"], seed=seed)
    runtime = time.perf_counter() - start
    first, last = result.diagnostics[0], result.diagnostics[-1]
    return {
        "acc": acc(assignment.labels, ds.labels),
        "nmi": nmi(assignment.labels, ds.labels),
        "runtime": runtime,
        "first_gap": first.uniformity_gap,
        "final_gap": last.uniformity_gap,
        "final_components": last.component_count,
    }


@pytest.fixture(scope="session")
def blob_runs():
    runs = {}
    for seed in range(10):
        runs[("full", seed)] = _blob_run("full", seed)
        runs[("fixed_k", seed)] = _blob_run("fixed_k", seed)
        if seed < 5:
            runs[("knn", seed)] = _blob_run("knn", seed)
    return runs


# --------------------------------------------------------------------------

def test_c01_closed_form_matches_projected_gradient_oracle():
    start = time.perf_counter()
    rng = make_rng(1001)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(5, 51))
        k = int(rng.integers(1, min(m - 1, 10) + 1))
        dists = rng.random(m) * 10.0
        ours = solve_connectivity_row(dists, k)
        ref = projected_gradient_row(dists, k)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report(ok, "criterion 1 closed-form connectivity",
           f"max |closed-form - projected-gradient| = {worst:.2e} over 100 "
           f"instances in {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_c02_degree_identities_on_fitted_graphs():
    start = time.perf_counter()
    rng = make_rng(1002)
    worst_a = worst_at = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 60))
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(m - 1, 4) + 1))
        x = rng.normal(size=(n, int(rng.integers(2, 5))))
        g = fit_anchor_graph(x, init_anchors(x, m, rng),
                             ConnectivitySolveConfig(k=k, max_iters=8))
        _, a, a_t = dense_adjacencies(g.indices, g.weights, g.m)
        worst_a = max(worst_a, float(np.max(np.abs(a.sum(1) - 1.0))))
        worst_at = max(worst_at, float(np.max(np.abs(a_t.sum(1) - 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst_a < 1e-10 and worst_at < 1e-10 and elapsed < 5.0
    report(ok, "criterion 2 degree identities",
           f"max |A*1 - 1| = {worst_a:.2e}, max |A_t*1 - 1| = {worst_at:.2e} "
           f"over 100 fitted graphs in {elapsed:.2f}s")
    assert worst_a < 1e-10 and worst_at < 1e-10
    assert elapsed < 5.0


def test_c03_factored_equals_dense_convolution():
    start = time.perf_counter()
    rng = make_rng(1003)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 201))
        m = int(rng.integers(4, 21))
        k = int(rng.integers(1, min(m - 1, 5) + 1))
        d = int(rng.integers(3, 8))
        idx = np.argsort(rng.random((n, m)), axis=1)[:, :k]
        for j in range(m):
            if j not in idx[j % n]:
                idx[j % n, 0] = j
        w = rng.random((n, k)) + 0.05
        w /= w.sum(axis=1, keepdims=True)
        g = AnchorGraph(idx, w, m)
        x = rng.normal(size=(n, d))
        c = rng.normal(size=(m, d))
        params = init_params([d, int(rng.integers(3, 9)), 3], rng)
        _, a, a_t = dense_adjacencies(g.indices, g.weights, g.m)
        p0, a0 = first_layer_inputs(g, x, c)
        z = conv_forward_samples(g, p0, params).out
        z_t = conv_forward_anchors(g, a0, params).out
        worst = max(worst, float(np.max(np.abs(z - dense_gcn_forward(a, x, params)))))
        worst = max(worst, float(np.max(np.abs(z_t - dense_gcn_forward(a_t, c, params)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(ok, "criterion 3 factored vs dense convolution",
           f"max abs diff = {worst:.2e} over 50 instances (both branches) "
           f"in {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_c04_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = make_rng(1004)
    worst = 0.0
    for _ in range(20):
        n, m, k = 12, 4, 2
        idx = np.stack([rng.choice(m, size=k, replace=False) for _ in range(n)])
        idx[:m, 0] = np.arange(m)
        fixed = []
        for row in idx:
            vals = list(dict.fromkeys(row.tolist()))
            while len(vals) < k:
                vals.append((vals[-1] + 1) % m)
            fixed.append(vals)
        idx = np.asarray(fixed)
        w = rng.random((n, k)) + 0.05
        w /= w.sum(axis=1, keepdims=True)
        g = AnchorGraph(idx, w, m)
        x = rng.normal(size=(n, 5))
        c = rng.normal(size=(m, 5))
        params = init_params([5, 4, 3], rng)

        p0, a0 = first_layer_inputs(g, x, c)
        cache_s = conv_forward_samples(g, p0, params)
        cache_a = conv_forward_anchors(g, a0, params)
        analytic, _ = backward(g, cache_s, cache_a, params)

        def value():
            z2 = conv_forward_samples(g, p0, params).out
            zt2 = conv_forward_anchors(g, a0, params).out
            return loss(g, on_support(g, decode(z2, zt2)))

        for a_grad, f_grad in zip(analytic, numerical_grads(value, params)):
            scale = np.maximum(np.abs(a_grad) + np.abs(f_grad), 1e-8)
            worst = max(worst, float(np.max(np.abs(a_grad - f_grad) / scale)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(ok, "criterion 4 gradient correctness",
           f"max relative error = {worst:.2e} over 20 instances in {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_c05_linear_scaling_witness():
    start = time.perf_counter()
    rng = make_rng(1005)
    params = init_params([64, 128, 64], rng)
    # Other processes only ever add time, so the fastest of several
    # repetitions is the estimate least disturbed by load. The sizes take
    # turns within each repetition (round robin), so a slow start or a
    # drifting load falls on every size alike. The timed call pools x
    # onto the anchors too, so the bound covers that n-row pass.
    sizes = (10_000, 20_000, 40_000)
    inputs = {}
    for n in sizes:
        g = random_bench_graph(n, 200, 4, rng)
        x = rng.normal(size=(n, 64))
        conv_forward_samples(g, g.pool(x), params)  # warm-up
        inputs[n] = g, x
    fastest = dict.fromkeys(sizes, np.inf)
    for _ in range(7):
        for n in sizes:
            g, x = inputs[n]
            t0 = time.perf_counter()
            conv_forward_samples(g, g.pool(x), params)
            fastest[n] = min(fastest[n], time.perf_counter() - t0)
    r1 = fastest[20_000] / fastest[10_000]
    r2 = fastest[40_000] / fastest[20_000]
    elapsed = time.perf_counter() - start
    ok = r1 <= 2.6 and r2 <= 2.6 and elapsed < 120.0
    report(ok, "criterion 5 linear scaling",
           f"fastest of 7 forward times {fastest[10_000]*1e3:.1f}/"
           f"{fastest[20_000]*1e3:.1f}/{fastest[40_000]*1e3:.1f} ms, "
           f"doubling ratios {r1:.2f} and {r2:.2f} (<= 2.6) in {elapsed:.1f}s")
    assert r1 <= 2.6 and r2 <= 2.6
    assert elapsed < 120.0


def test_whole_fit_linear_scaling():
    # c05 times the forward pass alone; this times run_anchorgae end to end
    # (both graph fits, training, pullback, diagnostics) and records its
    # tracemalloc peak. m, d, the cluster count and so k stay fixed, so
    # time and memory should both double with n. Timing as in c05: fastest
    # of several repetitions, sizes round robin.
    start = time.perf_counter()
    config = AnchorGaeConfig(clusters=4, anchors=100, hidden_dims=(16, 8),
                             outer_epochs=1, inner_epochs=3, seed=0)
    sizes = (10_000, 20_000, 40_000)
    inputs = {n: minmax_scale(make_blobs(n, 16, 4, 6.0, make_rng(n)).x)
              for n in sizes}
    fastest = dict.fromkeys(sizes, np.inf)
    for _ in range(5):
        for n in sizes:
            t0 = time.perf_counter()
            run_anchorgae(inputs[n], config)
            fastest[n] = min(fastest[n], time.perf_counter() - t0)
    peaks = {n: peak_bytes(lambda: run_anchorgae(inputs[n], config))
             for n in sizes}
    t1, t2 = (fastest[b] / fastest[a] for a, b in zip(sizes, sizes[1:]))
    p1, p2 = (peaks[b] / peaks[a] for a, b in zip(sizes, sizes[1:]))
    elapsed = time.perf_counter() - start
    ok = max(t1, t2) <= 2.6 and max(p1, p2) <= 2.2 and elapsed < 120.0
    report(ok, "whole-fit linear scaling",
           f"fastest of 5 fits {fastest[10_000]:.2f}/{fastest[20_000]:.2f}/"
           f"{fastest[40_000]:.2f} s, doubling ratios {t1:.2f} and {t2:.2f} "
           f"(<= 2.6); peaks {peaks[10_000] / 2**20:.1f}/"
           f"{peaks[20_000] / 2**20:.1f}/{peaks[40_000] / 2**20:.1f} MiB, "
           f"doubling ratios {p1:.2f} and {p2:.2f} (<= 2.2) in {elapsed:.1f}s")
    assert t1 <= 2.6 and t2 <= 2.6
    assert p1 <= 2.2 and p2 <= 2.2
    assert elapsed < 120.0


def test_c06_spectral_route_matches_dense_eigendecomposition():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = make_rng(2000 + seed)
        c = 2 + seed % 3
        ds = make_blobs(60 + 10 * (seed % 5), 6, c, 11.0, rng)
        g = fit_anchor_graph(ds.x, init_anchors(ds.x, 3 * c, rng),
                             ConnectivitySolveConfig(k=2))
        v, _, _ = spectral_via_svd(g, c)
        _, a, _ = dense_adjacencies(g.indices, g.weights, g.m)
        _, vecs = np.linalg.eigh(a)
        qa, _ = np.linalg.qr(v)
        qb, _ = np.linalg.qr(vecs[:, -c:])
        cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        worst = max(worst, float(np.max(angles)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report(ok, "criterion 6 spectral-route equivalence",
           f"max principal angle = {worst:.2e} rad over 10 instances "
           f"in {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_c07_hungarian_accuracy_matches_brute_force():
    start = time.perf_counter()
    rng = make_rng(1007)
    for _ in range(50):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(8, 80))
        pred = rng.integers(0, c, size=n)
        truth = rng.integers(0, c, size=n)
        fast = acc(pred, truth)
        slow = brute_force_acc(pred, truth)
        assert fast == pytest.approx(slow, abs=1e-12)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report(ok, "criterion 7 Hungarian accuracy oracle",
           f"50 trials (c <= 6) equal to factorial brute force in {elapsed:.2f}s")
    assert elapsed < 5.0


def test_c08_synthetic_end_to_end(blob_runs):
    accs = [blob_runs[("full", s)]["acc"] for s in range(5)]
    nmis = [blob_runs[("full", s)]["nmi"] for s in range(5)]
    runtimes = [blob_runs[("full", s)]["runtime"] for s in range(5)]
    med_acc, med_nmi = float(np.median(accs)), float(np.median(nmis))
    slowest = max(runtimes)
    ok = med_acc >= 0.95 and med_nmi >= 0.90 and slowest < 120.0
    report(ok, "criterion 8 synthetic end-to-end",
           f"median ACC {med_acc:.3f} (>= 0.95), median NMI {med_nmi:.3f} "
           f"(>= 0.90), slowest run {slowest:.0f}s (< 120s)")
    assert med_acc >= 0.95
    assert med_nmi >= 0.90
    assert slowest < 120.0


def test_c09_collapse_reproduction(blob_runs):
    gap_down = sum(1 for s in range(10)
                   if blob_runs[("fixed_k", s)]["final_gap"]
                   < blob_runs[("fixed_k", s)]["first_gap"])
    fragmented = sum(1 for s in range(10)
                     if blob_runs[("fixed_k", s)]["final_components"]
                     > BLOBS["c"])
    full_wins = sum(1 for s in range(10)
                    if blob_runs[("full", s)]["acc"]
                    > blob_runs[("fixed_k", s)]["acc"])
    spent = sum(blob_runs[(m, s)]["runtime"]
                for m in ("full", "fixed_k") for s in range(10))
    ok = (fragmented == 10 and gap_down >= 8 and full_wins >= 9
          and spent < 600.0)
    report(ok, "criterion 9 collapse reproduction",
           f"components > c on {fragmented}/10, uniformity gap decreased on "
           f"{gap_down}/10 (>= 8), full beats fixed-k on {full_wins}/10 "
           f"(>= 9), dependent runs took {spent:.0f}s (< 600s)")
    assert fragmented == 10
    assert gap_down >= 8
    assert full_wins >= 9
    assert spent < 600.0


def _load_usps():
    h5 = Path("data/usps.h5")
    csv_path = Path("data/usps.csv")
    if h5.exists():
        try:
            import h5py
        except ImportError:
            pytest.skip("data/usps.h5 present but h5py is not installed "
                        "(pip install h5py)")
        with h5py.File(h5, "r") as fh:
            x = np.vstack([fh["train"]["data"][:], fh["test"]["data"][:]])
            y = np.concatenate([fh["train"]["target"][:], fh["test"]["target"][:]])
        return x.astype(np.float64), y.astype(np.int64)
    if csv_path.exists():
        ds = load_csv(csv_path, label_col=0)
        return ds.x, ds.labels
    pytest.skip("USPS data not found; place data/usps.h5 (train/test groups "
                "with data/target) or data/usps.csv (label in column 0)")


def test_c10_usps_beats_kmeans_baseline():
    x, y = _load_usps()
    assert x.shape[0] == 9298, f"expected 9298 USPS samples, got {x.shape[0]}"
    x = minmax_scale(x)
    c = len(np.unique(y))

    start = time.perf_counter()
    base = kmeans(x, c, make_rng(0))
    baseline_acc = acc(base.labels, y)

    accs, nmis = [], []
    for seed in range(5):
        config = AnchorGaeConfig(clusters=c, anchors=200, seed=seed,
                                 inner_epochs=100)
        result = run_anchorgae(x, config)
        _, _, assignment = spectral_via_svd(result.graph, c, seed=seed)
        accs.append(acc(assignment.labels, y))
        nmis.append(nmi(assignment.labels, y))
    elapsed = time.perf_counter() - start
    med_acc, med_nmi = float(np.median(accs)), float(np.median(nmis))
    gain = med_acc - baseline_acc
    ok = gain >= 0.05 and elapsed < 900.0
    report(ok, "criterion 10 USPS vs k-means baseline",
           f"median ACC {med_acc:.3f} vs baseline {baseline_acc:.3f} "
           f"(gain {gain:+.3f}, need >= +0.05) in {elapsed:.0f}s; "
           f"reference full-scale result: ACC 0.853 / NMI 0.828 "
           f"(gap {med_acc - 0.853:+.3f} / {med_nmi - 0.828:+.3f}, informational)")
    assert gain >= 0.05
    assert elapsed < 900.0


def test_c11_ablation_ordering(blob_runs):
    med = lambda mode: float(np.median([blob_runs[(mode, s)]["acc"]
                                        for s in range(5)]))
    full, knn_med, fixed = med("full"), med("knn"), med("fixed_k")
    spent = sum(blob_runs[(m, s)]["runtime"]
                for m in ("full", "knn", "fixed_k") for s in range(5))
    ok = full >= knn_med >= fixed and spent < 900.0
    report(ok, "criterion 11 ablation ordering",
           f"median ACC full {full:.3f} >= knn {knn_med:.3f} >= "
           f"fixed-k {fixed:.3f}, dependent runs took {spent:.0f}s (< 900s)")
    assert full >= knn_med
    assert knn_med >= fixed
    assert spent < 900.0
