"""Command-line surface: end-to-end clustering runs (fit), the collapse
demonstration (collapse-demo), and metric evaluation of label files (eval).
Performance is measured by the perfbench harness, not by a subcommand.

Heavy imports happen inside the command handlers so the ANCHORGAE_THREADS
cap can be applied to the BLAS pools before numpy loads.
"""

import argparse
import csv
import io
import os
import sys
import time

_THREAD_LIMITER = None


class ConfigError(Exception):
    """Invalid flags or unusable inputs; maps to exit code 1."""


def _apply_thread_cap() -> None:
    global _THREAD_LIMITER
    cap = os.environ.get("ANCHORGAE_THREADS")
    if not cap:
        return
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ConfigError(
            f"ANCHORGAE_THREADS must be an integer >= 1, got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)
    try:
        from threadpoolctl import threadpool_limits
        _THREAD_LIMITER = threadpool_limits(limits=limit)
    except ImportError:
        pass  # env vars above still cover pools not yet started


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (config errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="dataset path (csv or idx images file)")
    p.add_argument("--format", choices=["csv", "idx", "blobs", "moons"],
                   default="csv")
    p.add_argument("--label-col", type=int, default=None,
                   help="csv column holding class labels")
    p.add_argument("--idx-labels", help="idx label file (required for --format idx)")
    p.add_argument("--scale", choices=["on", "off"], default="on",
                   help="min-max scale features to [0,1]")
    p.add_argument("--n", type=int, default=2000, help="synthetic sample count")
    p.add_argument("--dim", type=int, default=16, help="synthetic feature dim")
    p.add_argument("--separation", type=float, default=8.0,
                   help="blob center spread (in noise sigmas)")
    p.add_argument("--noise", type=float, default=0.08, help="moons noise sigma")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--anchors", type=int, default=100)
    p.add_argument("--layers", type=_int_list, default=[128, 64],
                   help="hidden layer widths, e.g. 128,64 or 256,32")
    p.add_argument("--k0", type=int, default=3)
    p.add_argument("--outer-epochs", type=int, default=5)
    p.add_argument("--inner-epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=["gd", "adam"], default="adam")
    p.add_argument("--mode", choices=["full", "fixed-b", "fixed-k", "knn"],
                   default="full",
                   help="full = weighted graph refit with growing sparsity; "
                        "fixed-b freezes the graph; fixed-k freezes the "
                        "sparsity; knn uses unweighted 1/k rows")
    p.add_argument("--ns", type=int, default=None,
                   help="smallest-cluster size estimate (default n // clusters)")
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="anchorgae",
                     description="Anchor-based bipartite graph convolution "
                                 "clustering for feature-vector data.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    fit = sub.add_parser("fit", help="run the pipeline and write reports")
    _add_dataset_flags(fit)
    _add_model_flags(fit)
    fit.add_argument("--report", help="JSON report output path")
    fit.add_argument("--labels-out", help="predicted labels CSV path")
    fit.add_argument("--embedding-out", help="embedding CSV path")
    fit.set_defaults(func=cmd_fit)

    demo = sub.add_parser("collapse-demo",
                          help="run fixed-k and full modes side by side")
    _add_dataset_flags(demo)
    _add_model_flags(demo)
    demo.add_argument("--out", required=True, help="per-iteration CSV path")
    demo.set_defaults(func=cmd_collapse_demo)

    ev = sub.add_parser("eval", help="score an existing label file")
    ev.add_argument("--pred", required=True, help="predicted labels CSV")
    ev.add_argument("--truth", required=True, help="ground-truth labels CSV")
    ev.add_argument("--report", help="optional JSON output path")
    ev.set_defaults(func=cmd_eval)
    return parser


def _load_dataset(args):
    from . import data_io
    from .numerics import make_rng

    if args.format == "csv":
        if not args.input:
            raise ConfigError("--input is required for --format csv")
        ds = data_io.load_csv(args.input, label_col=args.label_col)
    elif args.format == "idx":
        if not args.input or not args.idx_labels:
            raise ConfigError("--input and --idx-labels are required for "
                              "--format idx")
        ds = data_io.load_idx(args.input, args.idx_labels)
    elif args.format == "blobs":
        ds = data_io.make_blobs(args.n, args.dim, args.clusters,
                                args.separation, make_rng(args.seed))
    else:
        ds = data_io.make_two_moons(args.n, args.noise, make_rng(args.seed))
    if args.scale == "on":
        ds.x = data_io.minmax_scale(ds.x)
    return ds


def _pipeline_config(args):
    from .pipeline import AnchorGaeConfig

    try:
        return AnchorGaeConfig(
            clusters=args.clusters,
            anchors=args.anchors,
            hidden_dims=tuple(args.layers),
            k0=args.k0,
            outer_epochs=args.outer_epochs,
            inner_epochs=args.inner_epochs,
            learning_rate=args.lr,
            optimizer=args.optimizer,
            mode=args.mode.replace("-", "_"),
            n_s=args.ns,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _config_echo(args) -> dict:
    return {
        "dataset": args.input or args.format,
        "format": args.format,
        "scale": args.scale,
        "clusters": args.clusters,
        "anchors": args.anchors,
        "layers": list(args.layers),
        "k0": args.k0,
        "outer_epochs": args.outer_epochs,
        "inner_epochs": args.inner_epochs,
        "learning_rate": args.lr,
        "optimizer": args.optimizer,
        "mode": args.mode,
        "n_s": args.ns,
        "seed": args.seed,
    }


def cmd_fit(args) -> int:
    from . import data_io, metrics, report
    from .clustering import spectral_via_svd
    from .pipeline import run_anchorgae

    config = _pipeline_config(args)
    ds = _load_dataset(args)

    start = time.perf_counter()
    result = run_anchorgae(ds.x, config)
    _, _, assignment = spectral_via_svd(result.graph, args.clusters,
                                        seed=args.seed)
    runtime = time.perf_counter() - start

    acc_val = nmi_val = None
    if ds.labels is not None:
        acc_val = metrics.acc(assignment.labels, ds.labels)
        nmi_val = metrics.nmi(assignment.labels, ds.labels)

    if args.report:
        report.save_report(args.report, report.build_report(
            _config_echo(args), result, acc_val, nmi_val, runtime))
    if args.labels_out:
        report.atomic_write(args.labels_out, lambda tmp:
                            data_io.save_labels_csv(tmp, assignment.labels))
    if args.embedding_out:
        report.atomic_write(args.embedding_out, lambda tmp:
                            data_io.save_matrix_csv(tmp, result.z))

    shown_acc = "n/a" if acc_val is None else f"{acc_val:.4f}"
    shown_nmi = "n/a" if nmi_val is None else f"{nmi_val:.4f}"
    print(f"fit: n={ds.n} acc={shown_acc} nmi={shown_nmi} "
          f"runtime={runtime:.2f}s")
    return 0


def cmd_collapse_demo(args) -> int:
    from . import metrics
    from .clustering import spectral_via_svd
    from .pipeline import run_anchorgae
    from .report import atomic_write_text

    config = _pipeline_config(args)
    ds = _load_dataset(args)

    results = {}
    for mode in ("fixed_k", "full"):
        config.mode = mode
        results[mode] = run_anchorgae(ds.x, config, record_graphs=True)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["mode", "iteration", "k", "uniformity_gap",
                     "component_count", "reconstruction_gap", "acc"])
    finals = {}
    for mode, result in results.items():
        for entry, graph in zip(result.diagnostics, result.iteration_graphs):
            acc_text = ""
            if ds.labels is not None:
                _, _, assignment = spectral_via_svd(graph, args.clusters,
                                                    seed=args.seed)
                acc_text = f"{metrics.acc(assignment.labels, ds.labels):.6f}"
            writer.writerow([mode, entry.iteration, entry.k,
                             f"{entry.uniformity_gap:.6g}",
                             entry.component_count,
                             f"{entry.reconstruction_gap:.6g}", acc_text])
            finals[mode] = acc_text
    atomic_write_text(args.out, buf.getvalue())
    print(f"collapse-demo: final acc full={finals.get('full', 'n/a')} "
          f"fixed_k={finals.get('fixed_k', 'n/a')}")
    return 0


def cmd_eval(args) -> int:
    from . import metrics
    from .data_io import load_labels_csv
    from .report import save_report

    start = time.perf_counter()
    pred = load_labels_csv(args.pred)
    truth = load_labels_csv(args.truth)
    result = {"acc": metrics.acc(pred, truth), "nmi": metrics.nmi(pred, truth),
              "runtime_seconds": time.perf_counter() - start}
    if args.report:
        save_report(args.report, result)
    print(f"eval: acc={result['acc']:.4f} nmi={result['nmi']:.4f}")
    return 0


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ConfigError as exc:
        print(f"anchorgae: {exc}", file=sys.stderr)
        return 1
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"anchorgae: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, MemoryError, OSError) as exc:
        print(f"anchorgae: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
