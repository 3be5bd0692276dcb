"""Batch command-line front end.

Subcommands: fit, predict, eval, sweep, components, synth.  CSV outputs and
JSON reports embed the run configuration (a `# config:` line, a "config"
key), so an artifact can be reproduced from itself; model files do not
(see :mod:`hdmrnet.model`).  All randomness comes from explicit --seed
flags.  `_EXIT_CODES` gives each error its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import _scores, component_curves, sweep, write_sweep_csv
from .data import (SYNTH_KINDS, _atomic_open, _chunks, _config_line, _write_columns, load_csv,
                   load_matrix, save_csv, split, synth)
from .errors import (DatasetError, HdmrnetError, IllConditionedGramError,
                     InvalidHyperparameterError, InvalidOrderError, ModelFormatError, ShapeError,
                     UnsupportedDimensionError)
from .model import hdmr_fit, hdmr_predict, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_DIMENSION = 5

# The exit code of each error, the first whose kinds match.
_EXIT_CODES = [((DatasetError, ModelFormatError, OSError), EXIT_IO),
               ((IllConditionedGramError, InvalidHyperparameterError), EXIT_NUMERIC),
               ((ShapeError, InvalidOrderError, UnsupportedDimensionError), EXIT_DIMENSION),
               (ValueError, EXIT_USAGE)]


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got '{text}'")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _config_echo(args: argparse.Namespace) -> dict:
    config = {key: value for key, value in vars(args).items() if key != "func"}
    config["version"] = __version__
    return config


def _write_report(path: str | None, report: dict) -> str:
    """`report` as sorted, indented JSON text, also written atomically to
    `path` unless it is None."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if path is not None:
        with _atomic_open(path) as fh:
            fh.write(text + "\n")
    return text


def _table_report(model) -> dict | None:
    """The model's activation table as a report field, its `max_deviation`
    beside the three parts that it sums; None on the exact path."""
    table = model.gpr.activation_table
    if table is None:
        return None
    return {"degree": table.degree, "moment_degree": table.moment_degree, "terms": table.terms,
            "bound": table.bound, "chopped_tail": table.chopped_tail,
            "probed_deviation": table.probed_deviation, "max_deviation": table.max_deviation,
            "tolerance": table.tolerance}


def _cmd_fit(args) -> int:
    dataset = load_csv(args.data, target=args.target)
    if args.train is not None:
        train, test = split(dataset, args.train, args.seed, args.test)
    else:
        train, test = dataset, None
    started = time.perf_counter()
    model = hdmr_fit(train, args.d, args.n_per_term, args.l, args.noise, split_seed=args.seed)
    fit_seconds = time.perf_counter() - started
    report = {
        "config": _config_echo(args),
        "n_train": train.n,
        "n_test": test.n if test is not None else 0,
        "n_features": model.n_features,
        "test_rmse": None,
        "test_corr": None,
        "fit_seconds": fit_seconds,
    }
    report["train_rmse"], report["train_corr"] = _scores(model, train)
    if test is not None:
        report["test_rmse"], report["test_corr"] = _scores(model, test)
    report["activation_table"] = _table_report(model)
    save_model(model, args.out)
    _write_report(args.out + ".report.json", report)
    scores = f"train rmse {report['train_rmse']:.6g}"
    if test is not None:
        scores += f", test rmse {report['test_rmse']:.6g}"
    print(f"wrote {args.out} ({scores})")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    X, columns = load_matrix(args.data)
    comments = [_config_line(_config_echo(args))]
    names = [f"x{i + 1}" for i in range(model.dimension)] + ["prediction"]
    if not columns:  # no header and no rows, so no column count to check
        X = np.empty((0, model.dimension))
    save_csv(args.out, names, list(X.T) + [hdmr_predict(model, X)], comments)
    print(f"wrote {args.out} ({X.shape[0]} rows)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = load_csv(args.data, target=args.target)
    report = {"config": _config_echo(args)}
    if args.train is not None:
        train, test = split(dataset, args.train, args.seed, args.test)
        report["n_train"] = train.n
        report["n_test"] = test.n
        report["train_rmse"], report["train_corr"] = _scores(model, train)
        report["test_rmse"], report["test_corr"] = _scores(model, test)
    else:
        report["n"] = dataset.n
        report["rmse"], report["corr"] = _scores(model, dataset)
    report["activation_table"] = _table_report(model)
    print(_write_report(args.out, report))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    dataset = load_csv(args.data, target=args.target)
    result = sweep(dataset, d_list=args.d, N_list=args.n_per_term, repeats=args.repeats,
                   train_size=args.train, test_size=args.test, length_scale=args.l,
                   noise=args.noise, base_seed=args.seed, jobs=args.jobs)
    # Neither jobs, which is scheduling only, nor the paths appear (the
    # dataset's fingerprint names the data): the outputs are the same for
    # any worker count and from any directory.
    result.config = {"command": args.command, "version": __version__, "target": args.target,
                     **result.config}
    os.makedirs(args.out_dir, exist_ok=True)
    records_path = os.path.join(args.out_dir, "sweep.csv")
    summary_path = os.path.join(args.out_dir, "summary.csv")
    write_sweep_csv(result, records_path)
    summary = result.summary()
    save_csv(
        summary_path,
        ["d", "N", "best_test_rmse"],
        [np.array([row[k] for row in summary]) for k in range(3)],
        [_config_line(result.config)],
    )
    failed = sum(1 for rec in result.records if rec.status != "ok")
    print(f"wrote {records_path} ({len(result.records)} cells, {failed} failed)")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _term_label(curve) -> str:
    base = "*".join(f"x{i + 1}" for i in curve.subset)
    if len(curve.subset) == 1:
        return base
    return f"{base}#{curve.feature_index}"


def _cmd_components(args) -> int:
    model = load_model(args.model)
    curves = component_curves(model, args.grid)
    comments = [_config_line(_config_echo(args))]
    labelled = [(_term_label(curve), curve) for curve in curves]
    if args.out.endswith(("/", os.sep)) or os.path.isdir(args.out):
        os.makedirs(args.out, exist_ok=True)
        groups = [
            (os.path.join(args.out, f"term_{label.replace('*', '-').replace('#', '-n')}.csv"),
             [(label, curve)])
            for label, curve in labelled
        ]
        message = f"{len(curves)} curve files to {args.out}"
    else:
        groups = [(args.out, labelled)]
        message = f"{args.out} ({len(curves)} curves)"
    for path, group in groups:
        chunks = ([[label] * len(u), u, v] for label, curve in group
                  for u, v in _chunks([curve.grid, curve.values]))
        _write_columns(path, ["term", "grid", "value"], chunks, comments)
    print(f"wrote {message}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    dataset = synth(args.kind, args.dim, args.n, args.seed, args.noise_std)
    save_csv(
        args.out,
        dataset.column_names + [dataset.target_name],
        [dataset.X[:, i] for i in range(dataset.dimension)] + [dataset.t],
        [_config_line(_config_echo(args))],
    )
    print(f"wrote {args.out} ({dataset.n} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdmrnet",
        description="Orders-of-coupling surrogate models for scattered data, "
        "fitted without nonlinear optimization.",
    )
    parser.add_argument("--version", action="version", version=f"hdmrnet {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a surrogate and write a model file")
    fit.add_argument("--data", required=True, help="training CSV")
    fit.add_argument("--target", default=None, help="target column name (default: last)")
    fit.add_argument("--d", type=int, required=True, help="coupling order")
    fit.add_argument("--n-per-term", type=int, required=True,
                     help="neurons per coupled term (unused when --d 1)")
    fit.add_argument("--l", type=float, required=True, help="kernel length scale")
    fit.add_argument("--noise", type=float, default=1e-6, help="noise variance")
    fit.add_argument("--train", type=int, default=None,
                     help="training rows; remainder becomes the test set")
    fit.add_argument("--test", type=int, default=None, help="cap on test rows; needs --train")
    fit.add_argument("--seed", type=int, required=True, help="split seed")
    fit.add_argument("--out", required=True, help="model file path")
    fit.set_defaults(func=_cmd_fit)

    predict = commands.add_parser("predict", help="evaluate a model on new points")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True, help="points CSV, no target column")
    predict.add_argument("--out", required=True, help="predictions CSV")
    predict.set_defaults(func=_cmd_predict)

    evaluate = commands.add_parser("eval", help="report rmse and correlation")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True, help="CSV with target column")
    evaluate.add_argument("--target", default=None)
    evaluate.add_argument("--train", type=int, default=None,
                          help="re-split as in fit and report both sides")
    evaluate.add_argument("--test", type=int, default=None, help="cap on test rows; needs --train")
    evaluate.add_argument("--seed", type=int, default=None,
                          help="split seed (required with --train)")
    evaluate.add_argument("--out", default=None, help="also write the report JSON here")
    evaluate.set_defaults(func=_cmd_eval)

    sweep_cmd = commands.add_parser("sweep", help="grid of fits over d and N")
    sweep_cmd.add_argument("--data", required=True)
    sweep_cmd.add_argument("--target", default=None)
    sweep_cmd.add_argument("--d", type=_int_list, required=True,
                           help="comma-separated coupling orders, e.g. 1,2,3")
    sweep_cmd.add_argument("--n-per-term", type=_int_list, required=True,
                           help="comma-separated neuron counts, e.g. 20,40")
    sweep_cmd.add_argument("--repeats", type=int, default=3)
    sweep_cmd.add_argument("--train", type=int, required=True)
    sweep_cmd.add_argument("--test", type=int, default=None)
    sweep_cmd.add_argument("--l", type=float, required=True)
    sweep_cmd.add_argument("--noise", type=float, default=1e-6)
    sweep_cmd.add_argument("--seed", type=int, required=True,
                           help="base split seed; repeat r uses seed + r")
    sweep_cmd.add_argument("--jobs", type=int, default=1)
    sweep_cmd.add_argument("--out-dir", required=True)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    components = commands.add_parser(
        "components", help="sample neuron activation curves from a model"
    )
    components.add_argument("--model", required=True)
    components.add_argument("--grid", type=int, default=201)
    components.add_argument("--out", required=True,
                            help="CSV path, or a directory for one file per term")
    components.set_defaults(func=_cmd_components)

    synth_cmd = commands.add_parser("synth", help="generate a benchmark dataset")
    synth_cmd.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    synth_cmd.add_argument("--dim", type=int, required=True)
    synth_cmd.add_argument("--n", type=int, required=True)
    synth_cmd.add_argument("--seed", type=int, required=True)
    synth_cmd.add_argument("--noise-std", type=float, default=0.0)
    synth_cmd.add_argument("--out", required=True)
    synth_cmd.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.train is not None and args.seed is None:
        parser.error("eval --train requires --seed")
    if getattr(args, "test", None) is not None and args.train is None:
        parser.error(f"{args.command} --test requires --train")
    try:
        return args.func(args)
    except (HdmrnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
