import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from anchorgae.cli import main
from anchorgae.data_io import load_labels_csv, save_labels_csv
from anchorgae.numerics import make_rng
from anchorgae.report import load_report


def fit_args(tmp_path, **extra):
    args = [
        "fit", "--format", "blobs", "--n", "500", "--dim", "8",
        "--clusters", "4", "--separation", "12", "--anchors", "40",
        "--layers", "32,16", "--outer-epochs", "2", "--inner-epochs", "60",
        "--seed", "3",
        "--report", str(tmp_path / "report.json"),
        "--labels-out", str(tmp_path / "labels.csv"),
        "--embedding-out", str(tmp_path / "embedding.csv"),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_fit_blobs_end_to_end(tmp_path, capsys):
    assert main(fit_args(tmp_path)) == 0
    report = load_report(tmp_path / "report.json")
    assert report["acc"] is not None and report["acc"] >= 0.95
    assert report["nmi"] is not None and report["nmi"] >= 0.90
    assert report["code_version"]
    assert len(report["loss_traces"]) == 2
    assert len(report["collapse_diagnostics"]) == 3
    labels = load_labels_csv(tmp_path / "labels.csv")
    assert labels.shape == (500,)
    emb = np.loadtxt(tmp_path / "embedding.csv", delimiter=",")
    assert emb.shape == (500, 16)
    out = capsys.readouterr().out
    assert "acc=" in out


def test_fit_report_byte_identical_modulo_runtime(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(fit_args(tmp_path / "a")) == 0
    assert main(fit_args(tmp_path / "b")) == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("runtime_seconds"), rb.pop("runtime_seconds")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert (tmp_path / "a" / "labels.csv").read_bytes() == \
           (tmp_path / "b" / "labels.csv").read_bytes()
    assert (tmp_path / "a" / "embedding.csv").read_bytes() == \
           (tmp_path / "b" / "embedding.csv").read_bytes()


def test_fit_fixed_k_report_shows_rising_fragmentation(tmp_path):
    args = fit_args(tmp_path, mode="fixed-k", inner_epochs=150)
    assert main(args) == 0
    report = load_report(tmp_path / "report.json")
    series = report["collapse_diagnostics"]
    assert all(e["k"] == 3 for e in series)
    assert series[-1]["component_count"] > series[0]["component_count"]


def test_fit_missing_input_exits_1_no_partial_outputs(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["fit", "--format", "csv", "--input",
                 str(tmp_path / "missing.csv"), "--clusters", "2",
                 "--report", str(report)])
    assert code == 1
    assert not report.exists()
    assert capsys.readouterr().err  # message on stderr


def test_fit_rejects_bad_flag_combination(tmp_path, capsys):
    code = main(["fit", "--format", "csv", "--clusters", "2"])
    assert code == 1  # csv needs --input


def _write_csv(path, x):
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    return str(path)


LR_PROBE = ["--format", "blobs", "--n", "500", "--clusters", "3",
            "--anchors", "40", "--outer-epochs", "2", "--inner-epochs", "5",
            "--lr", "1000"]
SMALL_FIT = ["--clusters", "3", "--anchors", "20", "--layers", "8,4",
             "--outer-epochs", "2", "--inner-epochs", "5"]

# Hostile inputs and settings: (id, csv data or None, flags, exit code,
# fragments the message must hold, fragments it must not hold). Exit 1 is
# a bad input or setting, exit 2 a stage that failed after training.
PROBES = [
    ("constant-column", lambda: np.column_stack(
        [make_rng(2).normal(size=(200, 3)), np.full(200, 5.0)]),
     SMALL_FIT, 0, [], []),
    ("single-feature", lambda: make_rng(3).normal(size=(200, 1)),
     SMALL_FIT, 0, [], []),
    ("duplicated-rows",
     lambda: np.repeat(make_rng(1).normal(size=(30, 4)), 10, axis=0),
     ["--clusters", "3", "--anchors", "100", "--layers", "8,4",
      "--outer-epochs", "1", "--inner-epochs", "5"],
     1, ["30 distinct rows", "m=100"], []),
    ("identical-rows", lambda: np.ones((200, 3)), SMALL_FIT,
     1, ["1 distinct rows", "m=20"], []),
    ("fewer-samples-than-anchors", lambda: make_rng(4).normal(size=(50, 4)),
     SMALL_FIT + ["--anchors", "100"], 1, ["n=50", "m=100"], []),
    ("overflowing-features",
     lambda: make_rng(0).normal(size=(60, 3)) * 1e160,
     ["--scale", "off", "--clusters", "2", "--anchors", "10", "--layers",
      "8,4", "--outer-epochs", "1", "--inner-epochs", "5"],
     1, ["overflow", "e+160", "rescale the input"], []),
    ("lr-1000-gd", None, LR_PROBE + ["--optimizer", "gd"],
     2, ["outer iteration 0, graph refit", "collapsed", "--lr 1000"], []),
    ("lr-1000-adam", None, LR_PROBE + ["--optimizer", "adam"], 0, [], []),
    # One step at a huge rate leaves a finite loss but an embedding whose
    # distances overflow; the input is not at fault, so no rescale advice.
    ("lr-1e80-gd-one-epoch", None,
     LR_PROBE + ["--optimizer", "gd", "--inner-epochs", "1", "--lr", "1e80"],
     2, ["outer iteration 0, graph refit", "overflow", "--lr 1e+80"],
     ["rescale"]),
    # A second step at that rate overflows inside training, which reports
    # the non-finite loss before any refit.
    ("lr-1e80-gd-two-epochs", None,
     LR_PROBE + ["--optimizer", "gd", "--inner-epochs", "2", "--lr", "1e80"],
     2, ["outer iteration 0, training", "loss became non-finite at epoch 1"],
     []),
    # The same step with the graph frozen: no refit checks the embedding,
    # so the round's snapshot does.
    ("lr-1e80-gd-fixed-b", None,
     LR_PROBE + ["--optimizer", "gd", "--outer-epochs", "1", "--inner-epochs",
                 "1", "--lr", "1e80", "--mode", "fixed-b"],
     2, ["outer iteration 0, snapshot", "not finite", "--lr 1e+80"],
     ["rescale"]),
]


@pytest.mark.parametrize("data, flags, code, fragments, absent",
                         [row[1:] for row in PROBES],
                         ids=[row[0] for row in PROBES])
def test_fit_probe(tmp_path, capsys, data, flags, code, fragments, absent):
    """Each probe runs, or exits 1 or 2 with a message naming the setting
    or the stage, and never prints a traceback or a numpy warning."""
    source = [] if data is None else [
        "--format", "csv", "--input", _write_csv(tmp_path / "x.csv", data())]
    # Warnings are recorded here; the command line prints them on stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit", *source, *flags]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    numpy_warnings = [str(w.message) for w in caught
                      if "encountered in" in str(w.message)]
    assert not numpy_warnings, numpy_warnings
    if code == 0:
        assert out.startswith("fit: ")
    else:
        message = err.strip().splitlines()[-1]
        assert ("runtime failure" in message) == (code == 2), message
        assert all(f in message for f in fragments), message
        assert not any(f in message for f in absent), message


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--does-not-exist", "1"])
    assert exc.value.code == 1


def test_fit_single_cluster_rejected(tmp_path):
    code = main(["fit", "--format", "blobs", "--clusters", "1",
                 "--report", str(tmp_path / "r.json")])
    assert code == 1


def test_bench_is_an_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "400", "--out", "scaling.csv"])
    assert exc.value.code == 1


# (flags, cause in the message, caught before the dataset is read). A
# feature dimension of 0 is a data fault, found when the data is made.
BAD_SETTINGS = [
    (["--lr", "nan"], "learning_rate", True),
    (["--lr", "inf"], "learning_rate", True),
    (["--lr", "-1"], "learning_rate must be finite and >= 0, got -1.0", True),
    (["--inner-epochs", "0"], "inner_epochs", True),
    (["--layers", "0"], "hidden_dims", True),
    (["--dim", "0"], "x needs at least one row and one column", False),
    (["--seed", "-1"], "seed must be >= 0, got -1", True),
    (["--k0", "0"], "k0 must be >= 1, got 0", True),
    (["--ns", "0"], "n_s must be >= 1, got 0", True),
]


@pytest.mark.parametrize("flags, cause, before_read", BAD_SETTINGS,
                         ids=["lr-nan", "lr-inf", "lr-neg", "inner-epochs-0",
                              "layers-0", "dim-0", "seed-neg", "k0-0",
                              "ns-0"])
def test_fit_bad_setting_exit_1_before_graph_fit(tmp_path, capsys,
                                                 monkeypatch, flags, cause,
                                                 before_read):
    def fail(*args, **kwargs):
        raise AssertionError("a graph fit ran before the bad flag was caught")
    monkeypatch.setattr("anchorgae.pipeline.fit_anchor_graph", fail)
    if before_read:
        def no_read(*args, **kwargs):
            raise AssertionError("the dataset was read before the bad flag "
                                 "was caught")
        monkeypatch.setattr("anchorgae.cli._load_dataset", no_read)
    assert main(fit_args(tmp_path) + flags) == 1  # the last value wins
    err = capsys.readouterr().err
    assert cause in err and "runtime failure" not in err
    assert not (tmp_path / "report.json").exists()


def test_fit_more_clusters_than_anchors_exit_1_before_run(tmp_path, capsys,
                                                          monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("run_anchorgae ran with --clusters > --anchors")
    monkeypatch.setattr("anchorgae.pipeline.run_anchorgae", fail)
    args = fit_args(tmp_path, clusters=30, anchors=25)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "clusters" in err and "anchors=25" in err and "30" in err


def test_report_loader_rejects_unknown_fields(tmp_path):
    good = {
        "schema_version": 1, "code_version": "x", "config": {}, "acc": None,
        "nmi": None, "runtime_seconds": 0.0, "loss_traces": [],
        "collapse_diagnostics": [],
    }
    p = tmp_path / "r.json"
    p.write_text(json.dumps({**good, "surprise": 1}))
    with pytest.raises(ValueError, match="unknown"):
        load_report(p)
    p.write_text(json.dumps({**good, "schema_version": 99}))
    with pytest.raises(ValueError, match="schema version"):
        load_report(p)
    missing = dict(good)
    missing.pop("acc")
    p.write_text(json.dumps(missing))
    with pytest.raises(ValueError, match="missing"):
        load_report(p)


def test_collapse_demo_two_series(tmp_path, capsys):
    out = tmp_path / "collapse.csv"
    code = main([
        "collapse-demo", "--format", "blobs", "--n", "500", "--dim", "8",
        "--clusters", "4", "--separation", "12", "--anchors", "40",
        "--layers", "32,16", "--outer-epochs", "2", "--inner-epochs", "60",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r["mode"], []).append(r)
    assert set(by_mode) == {"full", "fixed_k"}
    assert len(by_mode["full"]) == len(by_mode["fixed_k"]) == 3
    ks = [int(r["k"]) for r in by_mode["full"]]
    assert all(b >= a for a, b in zip(ks, ks[1:]))  # schedule echo
    assert all(int(r["k"]) == 3 for r in by_mode["fixed_k"])
    assert all(r["acc"] for r in rows)
    assert "final acc" in capsys.readouterr().out


def test_collapse_demo_zero_epochs_identical_series(tmp_path):
    out = tmp_path / "collapse0.csv"
    code = main([
        "collapse-demo", "--format", "blobs", "--n", "300", "--dim", "6",
        "--clusters", "3", "--separation", "12", "--anchors", "25",
        "--layers", "16,8", "--outer-epochs", "0", "--inner-epochs", "30",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # one entry per mode
    a, b = rows
    for key in ("iteration", "k", "uniformity_gap", "component_count",
                "reconstruction_gap", "acc"):
        assert a[key] == b[key]


def test_eval_command(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    save_labels_csv(pred, [0, 0, 1, 1])
    save_labels_csv(truth, [1, 1, 0, 0])
    report = tmp_path / "eval.json"
    code = main(["eval", "--pred", str(pred), "--truth", str(truth),
                 "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["acc"] == 1.0 and payload["nmi"] == 1.0
    assert "acc=1.0000" in capsys.readouterr().out


def test_eval_missing_file_exit_1(tmp_path):
    code = main(["eval", "--pred", str(tmp_path / "nope.csv"),
                 "--truth", str(tmp_path / "nope.csv")])
    assert code == 1


def test_console_entry_point_smoke(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "anchorgae.cli", "eval", "--pred", "x", "--truth", "y"],
        capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stderr


def test_thread_cap_env_applies(tmp_path, monkeypatch, capsys):
    pred = tmp_path / "p.csv"
    save_labels_csv(pred, [0, 1])
    args = ["eval", "--pred", str(pred), "--truth", str(pred)]
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    # A copy, so the pool sizes main sets end with this test.
    monkeypatch.setattr(os, "environ", os.environ.copy())
    for var in pools:
        os.environ.pop(var, None)
    for bad in ("0", "-1", "zebra"):
        monkeypatch.setenv("ANCHORGAE_THREADS", bad)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "ANCHORGAE_THREADS" in err and ">= 1" in err
        # Rejected before any pool size is set.
        assert not any(var in os.environ for var in pools)
    monkeypatch.setenv("ANCHORGAE_THREADS", "1")
    assert main(args) == 0
    # A pool size already set is capped too.
    for var in pools:
        monkeypatch.setenv(var, "2")
    assert main(args) == 0
    assert [os.environ[var] for var in pools] == ["1"] * 4
