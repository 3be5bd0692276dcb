"""Span tracing at hdmrnet's module boundaries, from outside the package.

`Tracer.install` replaces each public function named in `LAYER_FUNCTIONS`
with a wrapper that records a span (name, start, end, parent, pid) and
rebinds it in every loaded ``hdmrnet`` module that imported it by name,
so ``hdmrnet.cli.save_model`` and ``hdmrnet.model.save_model`` are both
traced.  No file of the package changes.  A function that no longer
exists is reported as absent, never as an error, and so is the computed
`gpr.gram_temp_bytes` once the kernel has no `_FEATURE_CHUNK`.

Spans stay in memory.  In a process other than the one that installed the
tracer (a sweep worker), every finished span is appended to a per-process
file at once, because pool workers end without running exit handlers; the
installing process merges those files with `collect_worker_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager

# Layer (module of the package) -> public functions traced at its boundary.
# `coupling.build_feature_map` also covers the Sobol layer, which the
# pipeline reaches only through it.
LAYER_FUNCTIONS = {
    "data": ("load_csv", "load_matrix", "save_csv", "split", "synth"),
    "coupling": ("build_feature_map", "map_features"),
    "model": ("hdmr_fit", "hdmr_predict", "fit_scaler", "apply_scaler",
              "save_model", "load_model"),
    "gpr": ("gram_matrix", "gpr_fit", "gpr_predict"),
    "analysis": ("sweep", "write_sweep_csv", "rmse", "pearson_corr"),
}


def _gram_work(args, kwargs, result):
    Y = args[0] if args else kwargs["Y"]
    m, f = Y.shape
    work = {"entries": m * m * f}
    # The (rows, M, chunk) float64 temporary of the pairwise kernel.
    chunk = _feature_chunk()
    if chunk is not None:
        work["temp_bytes"] = m * m * min(f, chunk) * 8
    return work


def _feature_chunk() -> int | None:
    """The Gram kernel's feature chunk, or None once the kernel has none."""
    chunk = getattr(sys.modules.get("hdmrnet.gpr"), "_FEATURE_CHUNK", None)
    return chunk if isinstance(chunk, int) else None


def _predict_work(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    Ystar = args[1] if len(args) > 1 else kwargs["Ystar"]
    return {"entries": Ystar.shape[0] * model.n_train * model.n_features}


def _fit_work(args, kwargs, result):
    # Factorizations tried: the requested noise, then one per 10x escalation.
    tries = 1 + round(math.log10(result.effective_noise / result.noise))
    return {"factor_tries": tries}


WORK = {
    "gpr.gram_matrix": _gram_work,
    "gpr.gpr_predict": _predict_work,
    "gpr.gpr_fit": _fit_work,
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self, worker_dir: str | None = None):
        self.spans: list[dict] = []
        self.worker_dir = worker_dir
        # Spans finished in any other process are flushed to `worker_dir`.
        self._owner_pid = os.getpid()
        self._stack: list[str] = []
        self._count = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        pid = os.getpid()
        self._count += 1
        record = {
            "id": f"{pid}:{self._count}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pid": pid,
            "start": time.perf_counter(),
        }
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            self._finish(record)

    def _finish(self, record: dict) -> None:
        if record["pid"] == self._owner_pid or self.worker_dir is None:
            self.spans.append(record)
            return
        path = os.path.join(self.worker_dir, f"spans-{record['pid']}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if work is not None:
                    # A later signature change must not fail the command.
                    try:
                        record.update(work(args, kwargs, result))
                    except (AttributeError, KeyError, IndexError, TypeError,
                            ValueError) as exc:
                        record["work_error"] = repr(exc)
                return result

        return traced

    def install(self) -> list[str]:
        """Wrap every function in `LAYER_FUNCTIONS`; return what is absent."""
        importlib.import_module("hdmrnet.cli")
        absent = []
        for layer, names in LAYER_FUNCTIONS.items():
            try:
                module = importlib.import_module(f"hdmrnet.{layer}")
            except ImportError:
                absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (
                        mod_name == "hdmrnet" or mod_name.startswith("hdmrnet.")
                    ):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        if _feature_chunk() is None:
            absent.append("gpr.gram_temp_bytes")
        return absent

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def collect_worker_spans(self) -> None:
        """Move spans flushed by worker processes into `spans`."""
        if self.worker_dir is None:
            return
        merged = []
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path, encoding="utf-8") as fh:
                merged.extend(json.loads(line) for line in fh if line.strip())
            os.unlink(path)
        self.spans.extend(merged)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part covered by same-process children.

    Children in another process (sweep workers) run concurrently with the
    parent's wait, so they do not reduce its self time.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            children.setdefault(parent["id"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def total_s(spans: list[dict], *names: str) -> float:
    """Summed duration of the spans with any of these names."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)
