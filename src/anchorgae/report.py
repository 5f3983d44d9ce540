"""Versioned JSON run reports and atomic artifact writing."""

import json
import os
from dataclasses import asdict
from pathlib import Path

from . import __version__

SCHEMA_VERSION = 1

TOP_LEVEL_KEYS = {
    "schema_version",
    "code_version",
    "config",
    "acc",
    "nmi",
    "runtime_seconds",
    "loss_traces",
    "collapse_diagnostics",
}


def atomic_write(path, write) -> None:
    """Call write(tmp) on a sibling temp path, then rename it to path, so
    readers never observe a partial artifact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, lambda tmp: tmp.write_text(text))


def build_report(config_echo: dict, result, acc: float | None,
                 nmi: float | None, runtime_seconds: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "config": config_echo,
        "acc": acc,
        "nmi": nmi,
        "runtime_seconds": runtime_seconds,
        "loss_traces": [trace.tolist() for trace in result.loss_traces],
        "collapse_diagnostics": [asdict(e) for e in result.diagnostics],
    }


def save_report(path, report: dict) -> None:
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path) -> dict:
    """Load and validate a report; unknown fields or a schema mismatch are
    rejected rather than silently accepted."""
    with open(path) as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ValueError(f"{path}: report must be a JSON object")
    unknown = set(report) - TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown report fields {sorted(unknown)}")
    missing = TOP_LEVEL_KEYS - set(report)
    if missing:
        raise ValueError(f"{path}: missing report fields {sorted(missing)}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema version {report['schema_version']} unsupported "
            f"(expected {SCHEMA_VERSION})")
    return report
