import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from anchorgae.metrics import acc, nmi
from anchorgae.numerics import make_rng
from oracles import brute_force_acc, csgraph_matched_count

SRC = Path(__file__).resolve().parents[1] / "src"


def table_labels(table):
    """Label vectors whose contingency table is table (rows: predicted)."""
    rows, cols = np.nonzero(table)
    counts = table[rows, cols]
    return np.repeat(rows, counts), np.repeat(cols, counts)


def random_table(rng, kind, max_side=12):
    r, c = (int(v) for v in rng.integers(1, max_side + 1, size=2))
    if kind == "uniform":
        table = rng.integers(0, 50, size=(r, c))
    elif kind == "zero-heavy":
        table = rng.integers(1, 50, size=(r, c)) * (rng.random((r, c)) < 0.15)
    elif kind == "ties":
        table = rng.integers(0, 3, size=(r, c))
    else:
        table = np.full((r, c), int(rng.integers(1, 9)))
    if not table.any():
        table[int(rng.integers(r)), int(rng.integers(c))] = 1
    return table


def test_acc_relabeling_invariance():
    assert acc([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_acc_random_uniform_two_balanced_classes():
    rng = make_rng(80)
    n = 20_000
    truth = np.repeat([0, 1], n // 2)
    pred = rng.integers(0, 2, size=n)
    assert abs(acc(pred, truth) - 0.5) < 0.05


def test_acc_matches_brute_force_permutations():
    rng = make_rng(81)
    for _ in range(50):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(10, 60))
        pred = rng.integers(0, c, size=n)
        truth = rng.integers(0, c, size=n)
        assert acc(pred, truth) == pytest.approx(brute_force_acc(pred, truth))


@pytest.mark.parametrize("kind", ["uniform", "zero-heavy", "constant", "ties"])
def test_acc_equals_linear_sum_assignment_reference(kind):
    # Rectangular tables, padded to square inside acc; "ties" and
    # "constant" tables have many optimal matchings but one optimal value.
    rng = make_rng({"uniform": 88, "zero-heavy": 89, "constant": 90,
                    "ties": 93}[kind])
    for _ in range(400):
        table = random_table(rng, kind)
        rows, cols = linear_sum_assignment(table, maximize=True)
        best = int(table[rows, cols].sum())
        assert csgraph_matched_count(table) == best
        assert acc(*table_labels(table)) == best / float(table.sum())


@pytest.mark.parametrize("kind", ["uniform", "zero-heavy", "constant", "ties"])
def test_acc_equals_linear_sum_assignment_on_tables_up_to_30(kind):
    rng = make_rng({"uniform": 94, "zero-heavy": 95, "constant": 96,
                    "ties": 97}[kind])
    for _ in range(60):
        table = random_table(rng, kind, max_side=30)
        rows, cols = linear_sum_assignment(table, maximize=True)
        best = int(table[rows, cols].sum())
        assert csgraph_matched_count(table) == best
        assert acc(*table_labels(table)) == best / float(table.sum())


def test_acc_matches_brute_force_on_small_rectangular_tables():
    for kind, seed in (("zero-heavy", 91), ("ties", 92)):
        rng = make_rng(seed)
        for _ in range(100):
            table = random_table(rng, kind)[:5, :6]
            if not table.any():
                continue
            pred, truth = table_labels(table)
            assert acc(pred, truth) == pytest.approx(
                brute_force_acc(pred, truth), abs=1e-12)


# scipy.optimize costs about 0.27 s and 17 MiB to import, and
# scipy.sparse.csgraph about 12 MiB, through scipy.sparse.linalg and
# scipy.linalg; the component count and the label matching run in numpy.
UNLOADED = ("scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg",
            "scipy.linalg")


def test_importing_the_package_and_fitting_loads_no_scipy_optimize(tmp_path):
    # The CLI fit records collapse diagnostics (measure_collapse) and
    # scores its labels (acc).
    script = textwrap.dedent(f"""
        import sys
        import anchorgae.metrics, anchorgae.pipeline, anchorgae.clustering
        from anchorgae import cli
        code = cli.main(["fit", "--format", "blobs", "--n", "120", "--dim", "4",
                         "--clusters", "3", "--anchors", "12",
                         "--layers", "8,4", "--outer-epochs", "1",
                         "--inner-epochs", "2", "--seed", "0",
                         "--report", {str(tmp_path / "report.json")!r}])
        assert code == 0, code
        loaded = [name for name in {UNLOADED!r} if name in sys.modules]
        assert not loaded, f"loaded: {{loaded}}"
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "acc=" in out.stdout


def test_acc_invariant_under_label_permutation():
    rng = make_rng(82)
    truth = rng.integers(0, 4, size=100)
    pred = rng.integers(0, 4, size=100)
    perm = np.array([2, 3, 1, 0])
    assert acc(pred, truth) == acc(perm[pred], truth)


def test_acc_unequal_cluster_counts_padded():
    # 3 predicted clusters vs 2 true classes still scores the best bijection
    pred = [0, 1, 2, 2]
    truth = [0, 0, 1, 1]
    assert acc(pred, truth) == 0.75


def test_acc_self_is_one():
    rng = make_rng(83)
    labels = rng.integers(0, 5, size=60)
    assert acc(labels, labels) == 1.0


def test_acc_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        acc([0, 1], [0, 1, 2])


def test_nmi_identical_partitions():
    rng = make_rng(84)
    labels = rng.integers(0, 4, size=50)
    assert nmi(labels, labels) == pytest.approx(1.0)


def test_nmi_perfect_association_hand_table():
    # contingency [[2, 0], [0, 2]]
    assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)


def test_nmi_independent_partitions_near_zero():
    rng = make_rng(85)
    n = 10_000
    a = rng.integers(0, 4, size=n)
    b = rng.integers(0, 4, size=n)
    assert nmi(a, b) <= 0.05


def test_nmi_symmetric():
    rng = make_rng(86)
    a = rng.integers(0, 3, size=40)
    b = rng.integers(0, 5, size=40)
    assert abs(nmi(a, b) - nmi(b, a)) < 1e-12


def test_nmi_single_cluster_conventions():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0       # identical trivial partitions
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0       # one side has zero entropy
    assert nmi([0, 1, 2], [0, 0, 0]) == 0.0


def test_nmi_bounds():
    rng = make_rng(87)
    for _ in range(20):
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 4, size=30)
        v = nmi(a, b)
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_nmi_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        nmi([0], [0, 1])
