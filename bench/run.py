"""Benchmark of the hdmrnet CLI: one workload per run, all inputs from a seed.

    python3 bench/run.py --workload fit_coupled --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): fit_coupled,
predict_bulk, sweep_tall.  The run sets up the inputs 3 to 9 times in
fresh processes (`setup_s` is their median), then runs the workload's one
CLI command in a closed loop for about `--seconds` seconds in a process of
its own, checking every output.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1`, alternate commands
run traced and the metrics are the per-layer ones plus the tracing
overhead.  Lines before it, each starting with '#', repeat every metric
with its unit, the failure fraction, the sample counts and the
environment.  Work files go to `.bench_work/` at the repository root; the
full result of each run, spans included, stays in `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# Set-up runs at least SETUP_MIN_REPEATS times, and again while one more
# fits in SETUP_BUDGET_S, so cheap set-ups get a median of more samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 5.0
# Every child must end within this many seconds of the start of the run.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "cmd_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "bytes",
    "test_rmse_digits": "digits",
}
PER_LAYER = {
    "gpr.gram_s": "s",
    "gpr.gram_calls": "count",
    "gpr.gram_entries_per_s": "entries/s",
    "gpr.gram_temp_bytes": "bytes",
    "gpr.solve_s": "s",
    "gpr.factor_tries": "count",
    "gpr.predict_s": "s",
    "gpr.predict_entries_per_s": "entries/s",
    "model.fit_s": "s",
    "model.predict_s": "s",
    "model.scaler_s": "s",
    "model.save_s": "s",
    "model.load_s": "s",
    "coupling.feature_map_s": "s",
    "coupling.map_features_s": "s",
    "data.load_s": "s",
    "data.save_csv_s": "s",
    "analysis.cell_s_p50": "s",
    "analysis.cpu_util": "ratio",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}
# Metrics computed from argument shapes rather than measured.
COMPUTED = {"gpr.gram_entries_per_s", "gpr.gram_temp_bytes", "gpr.predict_entries_per_s"}


class ChildFailed(Exception):
    pass


def _run_child(argv: list[str], deadline: float) -> None:
    """Run a child in its own process group; kill the group unless it succeeds."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        err = "timed out"
    finally:
        if proc.returncode != 0:
            # Also ends sweep workers the child may have left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
    if proc.returncode != 0:
        raise ChildFailed(f"worker {argv[0]} failed ({proc.returncode}):\n{err}")


def run(args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{name}-{os.getpid()}")
    results = os.path.join(base, "results")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    spec = {
        "root": ROOT, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace), "scale": args.scale,
        "work_dir": work, "inputs": os.path.join(work, "inputs"),
        "result": os.path.join(results, f"{name}.json"),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        setup_s: list[float] = []
        while len(setup_s) < SETUP_MIN_REPEATS or (
            len(setup_s) < SETUP_MAX_REPEATS
            and sum(setup_s) + statistics.median(setup_s) <= SETUP_BUDGET_S
        ):
            shutil.rmtree(spec["inputs"], ignore_errors=True)
            t0 = time.perf_counter()
            _run_child(["prepare", spec_path, spec["inputs"]], deadline)
            setup_s.append(time.perf_counter() - t0)
        _run_child(["measure", spec_path], deadline)
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = setup_s
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        values = dict(result["layers"])
        untraced, traced = result["untraced_s"], result["traced_s"]
        values["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        units = PER_LAYER
    else:
        values = {
            "cmd_s": statistics.median(result["untraced_s"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "artifact_bytes": result["artifact_bytes"],
            # -log10 of the held-out RMSE: accurate digits.  The RMSE itself
            # depends on the seed's random design (quartiles 15-30% apart
            # over seeds); its digits vary by about 1%.
            "test_rmse_digits": (-math.log10(result["test_rmse"])
                                 if result["test_rmse"] else None),
        }
        units = END_TO_END
    return {key: {"value": values.get(key), "unit": unit} for key, unit in units.items()}


def report(result: dict, metrics: dict, args) -> None:
    """The '#' lines printed before the result line."""
    mode = "traced" if args.trace else "untraced"
    print(f"# hdmrnet bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, {mode}, scale {args.scale}")
    print("# command: hdmrnet " + " ".join(result["argv"]))
    print("# env: " + json.dumps(result["env"], sort_keys=True))
    samples = result["untraced_s"]
    print(f"# samples: {len(samples)} untraced commands"
          + (f", {len(result['traced_s'])} traced" if args.trace else "")
          + f", {len(result['setup_s'])} set-ups")
    for key, metric in metrics.items():
        note = " (computed from shapes)" if key in COMPUTED else ""
        if key == "cmd_s":
            note = f" (median of {len(samples)}; min {min(samples):.4g}, max {max(samples):.4g})"
        elif key == "setup_s":
            note = f" (median of {len(result['setup_s'])})"
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"#   {key:28s} {value:<14} {metric['unit']}{note}")
    if not args.trace and result["test_rmse"] is not None:
        print(f"#   {'test_rmse':28s} {result['test_rmse']:<14.6g} target units")
    attempted, failed = result["attempted"], result["failed"]
    print(f"#   {'fail_frac':28s} {failed / max(attempted, 1):<14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    if args.trace:
        if result["absent"]:
            print("# absent (reported as 0): " + ", ".join(result["absent"]))
        selfs = result["layer_self_s"]
        print("# self time per layer (median over traced commands): "
              + ", ".join(f"{k} {v:.4g} s" for k, v in selfs.items())
              + f"; sum {sum(selfs.values()):.4g} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hdmrnet", "cli.py")):
        print(f"error: no hdmrnet sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = metrics_of(result, bool(args.trace))
    report(result, metrics, args)
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
