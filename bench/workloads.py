"""The benchmark's workloads: inputs made from the seed, the one hdmrnet CLI
command each workload times, and the checks on that command's outputs.

Every workload uses the `morse_like` synthetic function and length scale
0.3.  Why each one exists:

fit_coupled   The paper's main use: an order-2 surrogate with F >> D
              (D = 6, F = 306, 1000 training rows).  The Gram build
              dominates, so kernel changes show here and solver changes
              barely do.
predict_bulk  Serving a saved surrogate: `predict` on 5000 fresh points.
              No Gram is built or factored, so it is the control for
              Gram and solver changes and the target for faster
              prediction and for model-file loading.
sweep_tall    Model selection with many rows and few features (D = 4,
              3000 training rows, F = 4 and 16).  Cholesky, jitter
              escalation and the (M, M, 8) Gram temporary matter here;
              prediction barely does.  It runs with `--jobs 1`, the CLI
              default: with 2 workers on 2 cores each worker's BLAS
              threads oversubscribe the cores and single commands ranged
              from 7.8 to 19.6 s, too unsteady to time.

The "tiny" scale keeps every step but shrinks the sizes, for the smoke
test and for warming up code paths before timing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

KIND = "morse_like"
LENGTH_SCALE = "0.3"

SIZES = {
    "full": {
        "fit_coupled": {"dim": 6, "rows": 2000, "d": 2, "n_per_term": 20,
                        "train": 1000, "test": 500},
        "predict_bulk": {"dim": 6, "rows": 2000, "d": 2, "n_per_term": 20,
                         "train": 1000, "test": 500, "points": 5000},
        "sweep_tall": {"dim": 4, "rows": 4000, "d": "1,2", "n_per_term": 2,
                       "repeats": 2, "train": 3000, "test": 1000, "jobs": 1},
    },
    "tiny": {
        "fit_coupled": {"dim": 6, "rows": 300, "d": 2, "n_per_term": 2,
                        "train": 200, "test": 100},
        "predict_bulk": {"dim": 6, "rows": 300, "d": 2, "n_per_term": 2,
                         "train": 200, "test": 100, "points": 200},
        "sweep_tall": {"dim": 4, "rows": 300, "d": "1,2", "n_per_term": 2,
                       "repeats": 2, "train": 200, "test": 100, "jobs": 1},
    },
}
NAMES = tuple(SIZES["full"])

# The prediction points are a fresh draw, never the training data.
POINTS_SEED_OFFSET = 1_000_003

# sweep_tall: the best order-2 test RMSE must beat the best order-1 one by
# this factor (order separation; about 1e4 at full size).
ORDER_SEPARATION = 100.0


class CheckFailed(Exception):
    """An output of the timed command is missing, wrong or not repeatable."""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by hdmrnet (comment lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class Workload:
    """One workload at one scale and seed.

    `prepare` writes the inputs with the CLI, `argv` is the timed command,
    and `check` verifies one command's outputs and returns its metrics.
    The first checked run is the reference that later runs must repeat.
    """

    def __init__(self, name: str, scale: str, seed: int):
        self.seed = seed
        self.size = SIZES[scale][name]
        self._reference = None

    @staticmethod
    def _setup_command(main, argv: list[str]) -> None:
        if main(argv) != 0:
            raise RuntimeError(f"set-up command failed: hdmrnet {' '.join(argv)}")

    def _synth(self, main, dim: int, n: int, seed: int, out: str) -> None:
        self._setup_command(main, ["synth", "--kind", KIND, "--dim", str(dim),
                                   "--n", str(n), "--seed", str(seed), "--out", out])

    def _fit_argv(self, data: str, out: str) -> list[str]:
        s = self.size
        return ["fit", "--data", data, "--d", str(s["d"]),
                "--n-per-term", str(s["n_per_term"]), "--l", LENGTH_SCALE,
                "--train", str(s["train"]), "--test", str(s["test"]),
                "--seed", str(self.seed), "--out", out]

    def prepare(self, main, inputs: str) -> None:
        self._synth(main, self.size["dim"], self.size["rows"], self.seed,
                    os.path.join(inputs, "data.csv"))

    def argv(self, inputs: str, out: str) -> list[str]:
        raise NotImplementedError

    def check(self, inputs: str, out: str) -> dict:
        raise NotImplementedError

    def _repeat(self, fingerprint) -> None:
        if self._reference is None:
            self._reference = fingerprint
        elif fingerprint != self._reference:
            raise CheckFailed("outputs differ from the first run with this seed")


class FitCoupled(Workload):
    def argv(self, inputs, out):
        return self._fit_argv(os.path.join(inputs, "data.csv"),
                              os.path.join(out, "model.json"))

    def check(self, inputs, out):
        model = os.path.join(out, "model.json")
        with open(model + ".report.json", encoding="utf-8") as fh:
            test_rmse = json.load(fh)["test_rmse"]
        if not (isinstance(test_rmse, float) and math.isfinite(test_rmse)):
            raise CheckFailed(f"report test_rmse is {test_rmse!r}")
        self._repeat((_sha256(model), test_rmse))
        return {"test_rmse": test_rmse, "artifact_bytes": os.path.getsize(model)}


class PredictBulk(Workload):
    def prepare(self, main, inputs):
        super().prepare(main, inputs)
        self._setup_command(main, self._fit_argv(os.path.join(inputs, "data.csv"),
                                                 os.path.join(inputs, "model.json")))
        truth = os.path.join(inputs, "truth.csv")
        self._synth(main, self.size["dim"], self.size["points"],
                    self.seed + POINTS_SEED_OFFSET, truth)
        # The program sees the points only; the target column stays behind.
        header, rows = _csv_rows(truth)
        with open(os.path.join(inputs, "points.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(header[:-1]) + "\n")
            for row in rows:
                fh.write(",".join(row[:-1]) + "\n")

    def argv(self, inputs, out):
        return ["predict", "--model", os.path.join(inputs, "model.json"),
                "--data", os.path.join(inputs, "points.csv"),
                "--out", os.path.join(out, "predictions.csv")]

    def check(self, inputs, out):
        path = os.path.join(out, "predictions.csv")
        _, rows = _csv_rows(path)
        predicted = [float(row[-1]) for row in rows]
        _, truth_rows = _csv_rows(os.path.join(inputs, "truth.csv"))
        truth = [float(row[-1]) for row in truth_rows]
        if len(predicted) != len(truth):
            raise CheckFailed(f"{len(predicted)} predictions for {len(truth)} points")
        if not all(math.isfinite(p) for p in predicted):
            raise CheckFailed("non-finite prediction")
        self._repeat(_sha256(path))
        sq = sum((p - t) ** 2 for p, t in zip(predicted, truth))
        return {
            "test_rmse": math.sqrt(sq / len(truth)),
            "artifact_bytes": os.path.getsize(os.path.join(inputs, "model.json")),
        }


class SweepTall(Workload):
    def argv(self, inputs, out):
        s = self.size
        return ["sweep", "--data", os.path.join(inputs, "data.csv"),
                "--d", s["d"], "--n-per-term", str(s["n_per_term"]),
                "--repeats", str(s["repeats"]), "--train", str(s["train"]),
                "--test", str(s["test"]), "--l", LENGTH_SCALE,
                "--seed", str(self.seed), "--jobs", str(s["jobs"]),
                "--out-dir", out]

    def check(self, inputs, out):
        records, summary = os.path.join(out, "sweep.csv"), os.path.join(out, "summary.csv")
        header, cells = _csv_rows(records)
        wall, status = header.index("wall_s"), header.index("status")
        bad = [row[status] for row in cells if row[status] != "ok"]
        if bad or not cells:
            raise CheckFailed(f"sweep cells not ok: {bad or 'no cells'}")
        with open(records, encoding="utf-8") as fh:
            config = fh.readline()
        # Every column but the timing must repeat exactly.
        self._repeat((config, [row[:wall] + row[wall + 1:] for row in cells]))
        header, rows = _csv_rows(summary)
        d, best = header.index("d"), header.index("best_test_rmse")
        by_order: dict[int, float] = {}
        for row in rows:
            order, value = int(row[d]), float(row[best])
            by_order[order] = min(value, by_order.get(order, math.inf))
        if not by_order.get(2, math.inf) * ORDER_SEPARATION <= by_order.get(1, 0.0):
            raise CheckFailed(f"no order separation: best test rmse by order {by_order}")
        return {
            "test_rmse": by_order[2],
            "artifact_bytes": os.path.getsize(records) + os.path.getsize(summary),
            "cell_wall_s": [float(row[wall]) for row in cells],
        }


CLASSES = {"fit_coupled": FitCoupled, "predict_bulk": PredictBulk,
           "sweep_tall": SweepTall}


def make(name: str, scale: str, seed: int) -> Workload:
    return CLASSES[name](name, scale, seed)
