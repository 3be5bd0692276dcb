"""Child processes of the benchmark (started by run.py, not by hand).

    python3 bench/worker.py prepare SPEC INPUTS_DIR
        Import hdmrnet and write one workload's inputs with its CLI.  The
        parent times the whole process as one set-up.
    python3 bench/worker.py measure SPEC
        Run the workload's CLI command in this process through
        `hdmrnet.cli.main`, one command after another (a closed loop with
        one client), check every output, and write the result JSON named
        in SPEC.  With tracing on, odd-numbered commands run traced.

The timed commands run in a process of their own so that its peak
resident set (and that of its sweep workers) covers them and nothing of
the set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads


def _import_cli(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    from hdmrnet.cli import main

    return main


def _quiet(main, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command; return its exit code and its stderr text."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy load, as set now."""
    import ctypes
    import glob

    import numpy
    import scipy

    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(package.__file__) + ".libs", "*openblas*")
        for path in sorted(glob.glob(libs)):
            lib = ctypes.CDLL(path)
            for name in names:
                if hasattr(lib, name):
                    getter = getattr(lib, name)
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[package.__name__] = getter()
                    break
    return found


def _caches() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            caches[parts[0]] = int(parts[1])
    return caches


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
    }


def prepare(spec: dict, inputs: str) -> None:
    main = _import_cli(spec["root"])
    workload = workloads.make(spec["workload"], spec["scale"], spec["seed"])
    os.makedirs(inputs, exist_ok=True)
    workload.prepare(main, inputs)


def layer_metrics(spans: list[dict], root: dict, cpu_s: float, nproc: int,
                  cell_wall_s: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced command, and self time per layer.

    Span totals include sweep workers, whose spans overlap in time.
    """
    selfs = tracing.self_times(spans)

    def spans_of(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return tracing.total_s(spans, *names)

    gram = spans_of("gpr.gram_matrix")
    gram_s = total("gpr.gram_matrix")
    predict = spans_of("gpr.gpr_predict")
    predict_s = total("gpr.gpr_predict")
    fits = spans_of("gpr.gpr_fit")
    duration = root["end"] - root["start"]
    metrics = {
        "gpr.gram_s": gram_s,
        "gpr.gram_calls": len(gram),
        "gpr.gram_entries_per_s":
            sum(s.get("entries", 0) for s in gram) / gram_s if gram_s > 0 else 0.0,
        "gpr.gram_temp_bytes": max((s.get("temp_bytes", 0) for s in gram), default=0),
        "gpr.solve_s": sum(selfs[s["id"]] for s in fits),
        "gpr.factor_tries": sum(s.get("factor_tries", 0) for s in fits),
        "gpr.predict_s": predict_s,
        "gpr.predict_entries_per_s":
            sum(s.get("entries", 0) for s in predict) / predict_s if predict_s > 0 else 0.0,
        "model.fit_s": total("model.hdmr_fit"),
        "model.predict_s": total("model.hdmr_predict"),
        "model.scaler_s": total("model.fit_scaler", "model.apply_scaler"),
        "model.save_s": total("model.save_model"),
        "model.load_s": total("model.load_model"),
        "coupling.feature_map_s": total("coupling.build_feature_map"),
        "coupling.map_features_s": total("coupling.map_features"),
        "data.load_s": total("data.load_csv", "data.load_matrix"),
        "data.save_csv_s": total("data.save_csv"),
        "analysis.cell_s_p50": statistics.median(cell_wall_s) if cell_wall_s else 0.0,
        "analysis.cpu_util": cpu_s / (nproc * duration),
        "cli.self_s": selfs[root["id"]],
    }
    # Self time per layer in this process; the layers add up to the command.
    layer_self: dict[str, float] = {}
    for s in spans:
        if s["pid"] == root["pid"]:
            layer = s["name"].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s["id"]]
    return metrics, layer_self


def measure(spec: dict) -> None:
    root, work = spec["root"], spec["work_dir"]
    main = _import_cli(root)
    nproc = os.cpu_count() or 1
    inputs = spec["inputs"]
    out = os.path.join(work, "out")

    # Warm up code paths on tiny inputs; not timed, not counted.
    warm = workloads.make(spec["workload"], "tiny", spec["seed"])
    warm_dir = os.path.join(work, "warm")
    os.makedirs(warm_dir)
    warm.prepare(main, warm_dir)
    os.makedirs(out)
    code, err = _quiet(main, warm.argv(warm_dir, out))
    if code != 0:
        raise RuntimeError(f"warm-up command failed ({code}): {err}")
    shutil.rmtree(warm_dir)

    workload = workloads.make(spec["workload"], spec["scale"], spec["seed"])
    trace = spec["trace"]
    tracer = tracing.Tracer(os.path.join(work, "spans")) if trace else None
    if tracer:
        os.makedirs(tracer.worker_dir)
    absent: list[str] = []
    untraced, traced, failures, checked = [], [], [], []
    per_command, layer_selfs = [], []
    min_samples = 4 if trace else 3
    started = time.perf_counter()
    while True:
        durations = untraced + traced
        elapsed = time.perf_counter() - started
        if len(durations) >= min_samples and (
            elapsed + statistics.median(durations) > spec["seconds"]
        ):
            break
        with_trace = trace and len(durations) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        argv = workload.argv(inputs, out)
        cpu0 = _cpu_seconds()
        if with_trace:
            absent = tracer.install()
            first = len(tracer.spans)
            try:
                with tracer.span("cli.main") as root_span:
                    code, err = _quiet(main, argv)
            finally:
                tracer.uninstall()
            traced.append(root_span["end"] - root_span["start"])
            tracer.collect_worker_spans()
        else:
            t0 = time.perf_counter()
            code, err = _quiet(main, argv)
            untraced.append(time.perf_counter() - t0)
        cpu_s = _cpu_seconds() - cpu0
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit code {code}: {err.strip()[-500:]}")
            result = workload.check(inputs, out)
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            failures.append(f"command {len(durations)}: {exc}")
            continue
        checked.append(result)
        if with_trace:
            metrics, layer_self = layer_metrics(
                tracer.spans[first:], root_span, cpu_s, nproc,
                result.get("cell_wall_s", []),
            )
            per_command.append(metrics)
            layer_selfs.append(layer_self)

    def median_of(rows, key):
        return statistics.median(row[key] for row in rows) if rows else None

    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "env": environment(root),
        "workload": spec["workload"],
        "scale": spec["scale"],
        "seed": spec["seed"],
        "size": workload.size,
        "argv": workload.argv("INPUTS", "OUT"),
        "untraced_s": untraced,
        "traced_s": traced,
        "attempted": len(untraced) + len(traced),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": max(ru_self, ru_kids) / 1024.0,
        "test_rmse": median_of(checked, "test_rmse"),
        "artifact_bytes": median_of(checked, "artifact_bytes"),
    }
    if trace:
        result["absent"] = absent
        result["layers"] = {
            key: statistics.median(row[key] for row in per_command)
            for key in (per_command[0] if per_command else {})
        }
        result["layer_self_s"] = {
            key: statistics.median(row.get(key, 0.0) for row in layer_selfs)
            for key in sorted({k for row in layer_selfs for k in row})
        }
        result["self_sum_s"] = [sum(row.values()) for row in layer_selfs]
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    phase, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if phase == "prepare":
        prepare(spec, sys.argv[3])
    elif phase == "measure":
        measure(spec)
    else:
        sys.exit(f"unknown phase {phase!r}")
