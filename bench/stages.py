"""Stage timings of one fit and predict per size, over the baseline grid.

    python3 bench/stages.py

For each (D, d, N, M) of the baseline grid this synthesizes `morse_like`
data (seed 1) with M training and 2000 test rows, fits with length scale
0.3, predicts the test rows and saves the model, with the benchmark's
tracer timing each stage: feature map (building and applying it),
scaling, Gram build, solve (Cholesky, triangular solves and refinement:
`gpr_fit` minus its Gram, with the number of factorizations jitter
escalation needed), prediction, and the model file's size.  It prints a
table and writes the rows as JSON to `.bench_work/stages.json`.  The
grid's largest row alone takes over a minute, which is why this report
runs on demand and is not one of the benchmark's workloads.
"""

from __future__ import annotations

import json
import os
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (D, d, N, M) rows of the ROADMAP's baseline grid.
BASELINE_GRID = ((3, 2, 20, 1000), (6, 2, 20, 1000), (6, 3, 10, 2000), (6, 2, 20, 4000))
PREDICT_POINTS = 2000
SEED = 1
LENGTH_SCALE = 0.3
OUT = os.path.join(ROOT, ".bench_work", "stages.json")


def stage_row(hn, D: int, d: int, N: int, M: int, n_predict: int, seed: int,
              model_path: str) -> dict:
    data = hn.synth("morse_like", D, M + n_predict, seed)
    train, test = hn.split(data, M, seed, n_predict)
    tracer = tracing.Tracer()
    absent = tracer.install()
    try:
        # The package attributes are rebound to the traced wrappers.
        model = hn.hdmr_fit(train, d, N, LENGTH_SCALE)
        hn.hdmr_predict(model, test.X)
        hn.save_model(model, model_path)
    finally:
        tracer.uninstall()
    selfs = tracing.self_times(tracer.spans)
    fits = [s for s in tracer.spans if s["name"] == "gpr.gpr_fit"]

    def total(*names):
        return tracing.total_s(tracer.spans, *names)

    return {
        "D": D, "d": d, "N": N, "M": M, "F": model.n_features,
        "feature_map_s": total("coupling.build_feature_map", "coupling.map_features"),
        "scaling_s": total("model.fit_scaler", "model.apply_scaler"),
        "gram_s": total("gpr.gram_matrix"),
        "solve_s": sum(selfs[s["id"]] for s in fits),
        "factor_tries": sum(s.get("factor_tries", 0) for s in fits),
        "predict_points": n_predict,
        "predict_s": total("model.hdmr_predict"),
        "save_s": total("model.save_model"),
        "model_bytes": os.path.getsize(model_path),
        "absent": absent,
    }


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hdmrnet as hn

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from worker import environment

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    model_path = OUT + ".model.json"
    print(f"{'D,d,N':>8} {'M':>5} {'F':>4} {'featmap':>8} {'scale':>8} {'Gram':>8} "
          f"{'solve':>8} {'tries':>5} {'predict':>8} {'save':>7} {'model MB':>8}")
    rows = []
    started = time.perf_counter()
    try:
        for D, d, N, M in BASELINE_GRID:
            row = stage_row(hn, D, d, N, M, PREDICT_POINTS, SEED, model_path)
            rows.append(row)
            print(f"{f'{D},{d},{N}':>8} {M:>5} {row['F']:>4} {row['feature_map_s']:>8.3f} "
                  f"{row['scaling_s']:>8.3f} {row['gram_s']:>8.3f} {row['solve_s']:>8.3f} "
                  f"{row['factor_tries']:>5} {row['predict_s']:>8.3f} {row['save_s']:>7.3f} "
                  f"{row['model_bytes'] / 1e6:>8.2f}", flush=True)
    finally:
        if os.path.exists(model_path):
            os.unlink(model_path)
    report = {
        "env": environment(ROOT),
        "seed": SEED,
        "length_scale": LENGTH_SCALE,
        "wall_s": time.perf_counter() - started,
        "rows": rows,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {OUT} (times in s, predict on {PREDICT_POINTS} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
