"""End-to-end and per-layer benchmark of anchorgae fits.

    python3 perfbench/run.py --workload refit-d16 --seed 0 --seconds 30 --trace 0

Run from the repository root. Each fit runs in a fresh worker process
(worker.py), one after another, until the next one would end past
--seconds. With --trace 0 every worker is untraced and the last line of
standard output holds the end-to-end metrics; with --trace 1 untraced and
traced workers alternate and it holds the per-layer metrics, the tracing
overhead and the time no span covers. Workload parameters and accuracy
floors live in workloads.json next to this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# Set-up is sampled once per worker; three give a median.
MIN_WORKERS = 3
# Keep a whole run well inside three minutes, whatever --seconds says.
HARD_LIMIT_S = 150.0


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def load_workload(name: str) -> dict:
    table = json.loads((HERE / "workloads.json").read_text())
    if name not in table["workloads"]:
        raise BenchError(f"unknown workload {name!r}; "
                         f"choose from {sorted(table['workloads'])}")
    return {**table["common"], **table["workloads"][name]}


def load_units() -> dict[str, str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    bench = json.loads(path.read_text())
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in bench[key]}


def run_worker(spec: dict, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec), str(seed),
             "1" if traced else "0", repr(t0)],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["wall_s"] = time.monotonic() - t0
    return result


def run_workers(spec: dict, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Untraced workers, or untraced and traced in turn, until the next
    worker would likely end past `seconds`."""
    began = time.monotonic()
    results: list[dict] = []
    while True:
        elapsed = time.monotonic() - began
        if results:
            typical = statistics.median(r["wall_s"] for r in results)
            if len(results) >= MIN_WORKERS and elapsed + typical > seconds:
                break
            if elapsed + typical > HARD_LIMIT_S:
                break
        traced = trace and len(results) % 2 == 1
        results.append(run_worker(spec, seed, traced,
                                  timeout=HARD_LIMIT_S + 20 - elapsed))
    return results


def mark_failures(results: list[dict]) -> None:
    """Fits whose labels differ from the first successful fit's fail too:
    every worker of one workload and seed must give the same labels."""
    digests = [r["digest"] for r in results if r["error"] is None]
    for r in results:
        if r["error"] is None and r["digest"] != digests[0]:
            r["error"] = f"label digest {r['digest']} != {digests[0]}"


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def summarize(results: list[dict], trace: bool) -> dict:
    ok = [r for r in results if r["error"] is None]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        return {
            "fit_s": median_of(plain, "fit_s"),
            "setup_s": median_of([r for r in results if not r["traced"]],
                                 "setup_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    # Labels are deterministic per seed but accuracy varies too much from
    # seed to seed for a bounded end-to-end metric, so it is reported here.
    metrics["clustering.acc"] = median_of(plain, "acc")
    metrics["clustering.nmi"] = median_of(plain, "nmi")
    metrics["trace_overhead"] = (median_of(traced, "fit_s")
                                 / median_of(plain, "fit_s"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "anchorgae" / "__init__.py").is_file():
            raise BenchError(f"package source not found under {SRC}")
        spec = load_workload(args.workload)
        units = load_units()
        results = run_workers(spec, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    mark_failures(results)
    metrics = summarize(results, bool(args.trace))
    failed = [r for r in results if r["error"] is not None]
    for r in failed:
        print(f"failed fit: {r['error']}", file=sys.stderr)
    missing = next((r["missing"] for r in results if r["missing"]), None)
    if missing:
        print(f"missing layers: {missing}", file=sys.stderr)

    spans = next((r["spans"] for r in results if "spans" in r), None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
    print("info: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "spec": spec,
        "env": results[0]["env"],
        "fits": [{k: r.get(k) for k in ("traced", "fit_s", "setup_s", "acc",
                                         "peak_rss_mb", "digest", "error")}
                 for r in results]}))
    print(json.dumps({"correct": not failed and bool(metrics),
                      "attempted": len(results), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
