"""Command-line workflow tests: every subcommand, exit codes, artifacts."""

import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hdmrnet.analysis
import hdmrnet.cli
import hdmrnet.data
from hdmrnet.cli import main
from hdmrnet.data import SYNTH_KINDS, synth
from hdmrnet.model import FORMAT_VERSION, hdmr_fit, hdmr_predict, load_model


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic dataset plus one fitted model, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "pair.csv")
    model = str(root / "pair.model")
    assert run("synth", "--kind", "pairwise", "--dim", "3", "--n", "400",
               "--seed", "1", "--out", data) == 0
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "5",
               "--l", "0.3", "--train", "200", "--seed", "7",
               "--out", model) == 0
    return root, data, model


def test_synth_writes_config_echo(workspace):
    _, data, _ = workspace
    lines = open(data).read().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    assert config["command"] == "synth" and config["seed"] == 1
    assert lines[1] == "x1,x2,x3,target"
    assert len(lines) == 2 + 400


def test_config_echo_holds_every_argument(workspace, tmp_path):
    # The echo is each command's parsed arguments (without the handler)
    # plus the version, so a flag added later cannot be left out of it.
    _, data, model = workspace
    out = str(tmp_path / "out")
    points = str(tmp_path / "points.csv")
    hdmrnet.data.save_csv(points, ["x1", "x2", "x3"], [np.full(2, 0.5)] * 3)
    commands = [
        (["fit", "--data", data, "--d", "2", "--n-per-term", "3", "--l", "0.3",
          "--train", "100", "--test", "50", "--seed", "4", "--out", out], out + ".report.json"),
        (["predict", "--model", model, "--data", points, "--out", out], out),
        (["eval", "--model", model, "--data", data, "--train", "200", "--seed", "7",
          "--out", out], out),
        (["components", "--model", model, "--grid", "5", "--out", out], out),
        (["synth", "--kind", "additive", "--dim", "2", "--n", "10", "--seed", "3",
          "--noise-std", "0.1", "--out", out], out),
    ]
    for argv, echo_path in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*argv) == 0
        text = open(echo_path).read()
        if text.startswith("# config: "):  # a CSV output
            echo = json.loads(text.splitlines()[0][len("# config: "):])
        else:  # a JSON report
            echo = json.loads(text)["config"]
        expected = vars(hdmrnet.cli.build_parser().parse_args(argv))
        del expected["func"]
        assert echo == {**expected, "version": hdmrnet.__version__}, argv[0]


def test_fit_writes_model_and_report(workspace):
    root, _, model = workspace
    report = json.load(open(model + ".report.json"))
    assert report["config"]["command"] == "fit"
    assert report["n_train"] == 200 and report["n_test"] == 200
    assert report["train_rmse"] <= report["test_rmse"]
    assert report["test_corr"] > 0.99
    table = report["activation_table"]
    assert table["nodes"] == 41  # 8 * ceil(1.25 / 0.3) + 1
    assert 1 <= table["terms"] < table["nodes"]  # chopped to what the tolerance needs
    assert 0.0 <= table["max_deviation"] <= table["tolerance"]
    header, body = map(json.loads, open(model).read().split("\n", 1))
    assert header["format_version"] == FORMAT_VERSION
    assert set(body) == {"metadata", "X", "gpr"}
    assert body["metadata"]["split_seed"] == 7
    assert "config" not in body["metadata"]


def test_fit_writes_the_same_model_file_from_any_directory(workspace, tmp_path, monkeypatch):
    # The model file holds what the data and the settings determine, and
    # not the run's paths, so a fit elsewhere writes the same bytes.
    _, data, model = workspace
    os.mkdir(tmp_path / "run")
    shutil.copy(data, tmp_path / "pair.csv")
    monkeypatch.chdir(tmp_path / "run")
    assert run("fit", "--data", "../pair.csv", "--d", "2", "--n-per-term", "5",
               "--l", "0.3", "--train", "200", "--seed", "7", "--out", "copy.model") == 0
    assert open("copy.model", "rb").read() == open(model, "rb").read()


def test_eval_reproduces_fit_report_bit_exactly(workspace, capsys):
    _, data, model = workspace
    assert run("eval", "--model", model, "--data", data,
               "--train", "200", "--seed", "7") == 0
    evaluated = json.loads(capsys.readouterr().out)
    report = json.load(open(model + ".report.json"))
    for key in ("train_rmse", "test_rmse", "train_corr", "test_corr", "activation_table"):
        assert evaluated[key] == report[key]


def test_eval_without_split_uses_all_rows(workspace, capsys):
    _, data, model = workspace
    assert run("eval", "--model", model, "--data", data) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated["n"] == 400
    assert evaluated["rmse"] >= 0


def test_constant_target_fits_and_sweeps_with_null_correlation(tmp_path, capsys):
    data = str(tmp_path / "constant.csv")
    X = np.random.default_rng(3).uniform(size=(50, 2))
    np.savetxt(data, np.column_stack([X, np.full(50, 2.5)]), delimiter=",",
               header="x1,x2,y", comments="")
    model = str(tmp_path / "constant.model")
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "3", "--l", "0.3",
               "--train", "40", "--seed", "1", "--out", model) == 0
    assert os.path.exists(model)
    report = json.load(open(model + ".report.json"))
    assert report["train_corr"] is None and report["test_corr"] is None
    assert report["train_rmse"] == 0.0 and report["test_rmse"] == 0.0
    capsys.readouterr()
    assert run("eval", "--model", model, "--data", data) == 0
    assert json.loads(capsys.readouterr().out)["corr"] is None
    out = str(tmp_path / "sweep")
    assert run("sweep", "--data", data, "--d", "1,2", "--n-per-term", "3", "--l", "0.3",
               "--train", "40", "--seed", "1", "--repeats", "1", "--out-dir", out) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["status"] == "ok"
        assert cells["train_corr"] == cells["test_corr"] == "nan"


def test_huge_targets_fit_and_score_without_warnings(tmp_path):
    # Targets near 1e198 are finite, but their squares are not: the fit is
    # sound, and the scores divide by powers of two before they square.
    # Tier-1 turns any RuntimeWarning into an error.
    line = str(tmp_path / "line.csv")
    assert run("synth", "--kind", "additive", "--dim", "1", "--n", "1500", "--seed", "1",
               "--out", line) == 0
    dataset = hdmrnet.data.load_csv(line)
    huge = str(tmp_path / "huge.csv")
    hdmrnet.data.save_csv(huge, ["x1", "target"], [dataset.X[:, 0], dataset.t * 1e200])
    model = str(tmp_path / "huge.model")
    assert run("fit", "--data", huge, "--d", "1", "--n-per-term", "0", "--l", "1.0",
               "--seed", "1", "--out", model) == 0
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    with open(model + ".report.json", encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=refuse)
    t = hdmrnet.data.load_csv(huge).t
    predicted = hdmr_predict(load_model(model), dataset.X)
    expected_rmse = 1e200 * hdmrnet.analysis.rmse(predicted / 1e200, t / 1e200)
    expected_corr = hdmrnet.analysis.pearson_corr(predicted / 1e200, t / 1e200)
    assert report["train_rmse"] == pytest.approx(expected_rmse, rel=1e-12)
    assert report["train_corr"] == pytest.approx(expected_corr, rel=1e-12)
    assert report["train_corr"] > 0.9999


def test_tiny_targets_score_as_their_rescaled_fit_does(tmp_path):
    # Targets near 1e-202 are not 0, but their squared deviations underflow:
    # the scores divide by powers of two before they square, and are
    # neither 0 nor a "zero variance" null.
    line = str(tmp_path / "line.csv")
    assert run("synth", "--kind", "additive", "--dim", "1", "--n", "1500", "--seed", "1",
               "--out", line) == 0
    dataset = hdmrnet.data.load_csv(line)
    tiny = str(tmp_path / "tiny.csv")
    hdmrnet.data.save_csv(tiny, ["x1", "target"], [dataset.X[:, 0], dataset.t * 1e-200])
    model = str(tmp_path / "tiny.model")
    assert run("fit", "--data", tiny, "--d", "1", "--n-per-term", "0", "--l", "1.0",
               "--seed", "1", "--out", model) == 0
    report = json.load(open(model + ".report.json", encoding="utf-8"))
    assert report["train_rmse"] == pytest.approx(4.0344923215031994e-203, rel=1e-12)
    assert report["train_corr"] == pytest.approx(0.9999839026419972, rel=1e-12)


def test_predict_round_trip(workspace, tmp_path):
    root, data, model = workspace
    points = str(tmp_path / "pts.csv")
    open(points, "w").write("0.1,0.2,0.3\n0.9,0.8,0.7\n")
    out = str(tmp_path / "preds.csv")
    assert run("predict", "--model", model, "--data", points, "--out", out) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "x1,x2,x3,prediction"
    values = [float(c) for c in lines[2].split(",")]
    # pairwise target at (0.1, 0.2, 0.3) is 0.11; the surrogate is close
    assert values[:3] == [0.1, 0.2, 0.3]
    assert abs(values[3] - 0.11) < 0.05


def test_predict_empty_input_succeeds(workspace, tmp_path):
    _, _, model = workspace
    points = str(tmp_path / "empty.csv")
    open(points, "w").write("# nothing\n")
    out = str(tmp_path / "preds.csv")
    assert run("predict", "--model", model, "--data", points, "--out", out) == 0
    lines = open(out).read().splitlines()
    assert lines[-1] == "x1,x2,x3,prediction"


def test_predict_dimension_mismatch_exit_code(workspace, tmp_path, capsys):
    _, _, model = workspace
    points = str(tmp_path / "wide.csv")
    out = tmp_path / "p.csv"
    # a header alone gives the points' width as well as a row does
    for text in ["0.1,0.2,0.3,0.4\n", "a,b\n"]:
        open(points, "w").write(text)
        assert run("predict", "--model", model, "--data", points, "--out", str(out)) == 5
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_components_single_file(workspace, tmp_path):
    _, _, model = workspace
    out = str(tmp_path / "curves.csv")
    assert run("components", "--model", model, "--grid", "11", "--out", out) == 0
    lines = open(out).read().splitlines()
    assert lines[1] == "term,grid,value"
    body = [line.split(",") for line in lines[2:]]
    terms = {row[0] for row in body}
    # 3 original terms + 3 subsets x 5 neurons
    assert len(terms) == 18
    assert {"x1", "x2", "x3"} <= terms
    assert len(body) == 18 * 11


def test_components_directory_mode(workspace, tmp_path):
    _, _, model = workspace
    out = str(tmp_path / "curves") + os.sep
    assert run("components", "--model", model, "--out", out) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 18
    assert "term_x1.csv" in files


def test_sweep_artifacts_and_determinism(workspace, tmp_path):
    _, data, _ = workspace
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    argv = ["sweep", "--data", data, "--d", "1,2", "--n-per-term", "4",
            "--repeats", "2", "--train", "150", "--test", "100",
            "--l", "0.3", "--seed", "5"]
    assert run(*argv, "--out-dir", out_a) == 0
    assert run(*argv, "--out-dir", out_b, "--jobs", "2") == 0

    def strip_wall(path):
        # drop the config comment (compared below) and blank the timing cell
        lines = open(path).read().splitlines()
        idx = lines[1].split(",").index("wall_s")
        body = []
        for line in lines[2:]:
            cells = line.split(",")
            cells[idx] = "_"
            body.append(",".join(cells))
        return lines[1], body

    assert strip_wall(os.path.join(out_a, "sweep.csv")) == strip_wall(
        os.path.join(out_b, "sweep.csv")
    )
    config_a = json.loads(
        open(os.path.join(out_a, "sweep.csv")).readline()[len("# config: ") :]
    )
    config_b = json.loads(
        open(os.path.join(out_b, "sweep.csv")).readline()[len("# config: ") :]
    )
    assert config_a == config_b  # neither --jobs nor --out-dir appears in the echo
    summary_a = open(os.path.join(out_a, "summary.csv")).read().splitlines()[1:]
    summary_b = open(os.path.join(out_b, "summary.csv")).read().splitlines()[1:]
    assert summary_a == summary_b
    assert summary_a[0] == "d,N,best_test_rmse"


def test_sweep_writes_the_same_outputs_from_any_directory(workspace, tmp_path, monkeypatch):
    # The config line names the dataset by its fingerprint, not by the
    # --data or --out-dir paths, so a sweep elsewhere writes the same bytes.
    _, data, _ = workspace
    argv = ["--d", "1,2", "--n-per-term", "2", "--repeats", "2", "--train", "150",
            "--test", "100", "--l", "0.3", "--seed", "5"]
    assert run("sweep", "--data", data, *argv, "--out-dir", str(tmp_path / "first")) == 0
    os.mkdir(tmp_path / "run")
    shutil.copy(data, tmp_path / "run" / "copy.csv")
    monkeypatch.chdir(tmp_path / "run")
    assert run("sweep", "--data", "copy.csv", *argv, "--out-dir", "second") == 0
    outputs = []
    for out in (tmp_path / "first", tmp_path / "run" / "second"):
        lines = (out / "sweep.csv").read_text().splitlines()
        wall = lines[1].split(",").index("wall_s")
        records = [line.split(",") for line in lines]
        outputs.append(([line for line in lines if line.startswith("#")],
                        [row[:wall] + row[wall + 1:] for row in records[1:]],
                        (out / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert "copy.csv" not in outputs[1][0][0] and "second" not in outputs[1][0][0]


# Import `hdmrnet.cli` from this checkout, print whether that imported
# scipy, then run each argv of the JSON list argv[1] through `main`; with
# argv[2] "block", scipy cannot be imported at all.
_COLD = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from hdmrnet.cli import main
print(sys.modules.get("scipy") is not None, flush=True)
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"hdmrnet {' '.join(argv)} failed")
"""


def _cold(commands: list[list[str]], block: bool = False) -> bool:
    """Run `commands` through `_COLD` in a fresh interpreter; whether
    importing the package imported scipy."""
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(hdmrnet.cli.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _COLD, json.dumps(commands),
                             "block" if block else "load"],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()[0] == "True"


def _body(path) -> list[str]:
    return [line for line in open(path, encoding="utf-8") if not line.startswith("#")]


def test_commands_without_a_fit_run_without_scipy(workspace, tmp_path):
    # `import hdmrnet` loads numpy only: scipy is imported at a fit's first
    # solve.  So synth, predict, eval and components run where scipy cannot
    # be imported, and write what they write in this process, which has it.
    assert not _cold([])
    _, data, model = workspace
    points = str(tmp_path / "points.csv")
    np.savetxt(points, np.random.default_rng(3).uniform(size=(50, 3)), delimiter=",")
    def commands(out):
        os.mkdir(out)
        return [["synth", "--kind", "morse_like", "--dim", "4", "--n", "60", "--seed", "2",
                 "--out", os.path.join(out, "synth.csv")],
                ["predict", "--model", model, "--data", points,
                 "--out", os.path.join(out, "preds.csv")],
                ["eval", "--model", model, "--data", data, "--train", "200", "--seed", "7",
                 "--out", os.path.join(out, "eval.json")],
                ["components", "--model", model, "--grid", "21",
                 "--out", os.path.join(out, "curves.csv")]]
    cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
    _cold(commands(cold), block=True)
    for argv in commands(warm):
        assert run(*argv) == 0
    for name in ("synth.csv", "preds.csv", "curves.csv"):
        assert _body(os.path.join(cold, name)) == _body(os.path.join(warm, name))
    reports = [json.load(open(os.path.join(out, "eval.json"))) for out in (cold, warm)]
    for report in reports:
        del report["config"]  # it echoes the --out path
    assert reports[0] == reports[1]


def test_cold_sweep_imports_scipy_on_two_threads_at_once(tmp_path):
    # The first cells of a cold `--jobs 2` sweep import scipy at once, on
    # the low-rank route (d = 1, F r = 51 < M = 100) and the Gram route
    # (d = 2, F r = 153 >= M): the import lock makes both wait for one
    # import, so the outputs equal a one-job run's here.  Every factored
    # matrix has fewer than 128 rows, where dpotrf's bits do not depend on
    # the BLAS thread count.
    data = str(tmp_path / "pair.csv")
    assert run("synth", "--kind", "pairwise", "--dim", "3", "--n", "150", "--seed", "1",
               "--out", data) == 0
    argv = ["sweep", "--data", data, "--d", "1,2", "--n-per-term", "2", "--l", "0.3",
            "--train", "100", "--seed", "7", "--repeats", "1"]
    assert not _cold([argv + ["--jobs", "2", "--out-dir", str(tmp_path / "cold")]])
    assert run(*argv, "--jobs", "1", "--out-dir", str(tmp_path / "warm")) == 0
    outputs = []
    for out in (tmp_path / "cold", tmp_path / "warm"):
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
        wall, status = rows[1].index("wall_s"), rows[1].index("status")
        assert [row[status] for row in rows[2:]] == ["ok", "ok"]
        outputs.append(([row[:wall] + row[wall + 1:] for row in rows[1:]],
                        (out / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_model_files_are_bit_identical_across_runs(workspace, tmp_path):
    _, data, _ = workspace
    out = str(tmp_path / "twice.model")
    argv = ("fit", "--data", data, "--d", "2", "--n-per-term", "5",
            "--l", "0.3", "--train", "200", "--seed", "7", "--out", out)
    assert run(*argv) == 0
    first = open(out, "rb").read()
    assert run(*argv) == 0
    assert open(out, "rb").read() == first


def test_usage_errors_exit_two(workspace):
    _, data, _ = workspace
    with pytest.raises(SystemExit) as info:
        run("fit", "--data", data, "--d", "2", "--n-per-term", "5",
            "--seed", "1", "--out", "/tmp/x.model")  # --l missing
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run("eval", "--model", "m", "--data", data, "--train", "10")  # no seed
    assert info.value.code == 2
    for argv in (["fit", "--d", "1", "--n-per-term", "0", "--l", "0.3", "--out", "x.model"],
                 ["eval", "--model", "m"]):
        with pytest.raises(SystemExit) as info:  # --test without --train
            run(*argv, "--data", data, "--test", "50", "--seed", "1")
        assert info.value.code == 2
    for orders in ("1,x", ","):  # a cell that is not an integer; no integers at all
        with pytest.raises(SystemExit) as info:
            run("sweep", "--data", data, "--d", orders, "--n-per-term", "2",
                "--train", "10", "--l", "0.3", "--seed", "1", "--out-dir", "/tmp/s")
        assert info.value.code == 2


def test_order_exceeding_dimension_exit_code(workspace, tmp_path, capsys):
    _, data, _ = workspace
    code = run("fit", "--data", data, "--d", "7", "--n-per-term", "2",
               "--l", "0.3", "--seed", "1",
               "--out", str(tmp_path / "x.model"))
    assert code == 5
    assert "order" in capsys.readouterr().err


def test_data_errors_exit_three(workspace, tmp_path, capsys):
    _, data, model = workspace
    assert run("eval", "--model", model, "--data", data, "--target", "Q") == 3
    assert "no column named" in capsys.readouterr().err
    assert run("fit", "--data", str(tmp_path / "absent.csv"), "--d", "1",
               "--n-per-term", "0", "--l", "0.3", "--seed", "1",
               "--out", str(tmp_path / "x.model")) == 3
    narrow = str(tmp_path / "narrow.csv")
    open(narrow, "w").write("a,E\n0.1,0.2,0.3\n")
    assert run("fit", "--data", narrow, "--d", "1", "--n-per-term", "0", "--l", "0.3",
               "--seed", "1", "--out", str(tmp_path / "x.model")) == 3
    assert "header has 2 names for 3 columns" in capsys.readouterr().err
    broken = str(tmp_path / "broken.model")
    open(broken, "w").write("{}")
    assert run("predict", "--model", broken, "--data", data,
               "--out", str(tmp_path / "p.csv")) == 3


def test_non_utf8_data_exits_three_naming_the_line(workspace, tmp_path, capsys):
    _, _, model = workspace
    bad = str(tmp_path / "bad.csv")
    open(bad, "wb").write(b"a,b,c,E\n1,2,3,4\n3,\xff,1,2\n")
    target = str(tmp_path / "bad.model")
    assert run("fit", "--data", bad, "--d", "1", "--n-per-term", "0", "--l", "0.3",
               "--seed", "1", "--out", target) == 3
    assert not os.path.exists(target)
    assert run("predict", "--model", model, "--data", bad,
               "--out", str(tmp_path / "p.csv")) == 3
    err = capsys.readouterr().err
    assert err.count("bad.csv: line 3: byte 0xff is not UTF-8 text") == 2
    assert not os.path.exists(tmp_path / "p.csv")


def test_non_utf8_model_exits_three_writing_nothing(workspace, tmp_path, capsys):
    _, data, _ = workspace
    bad = str(tmp_path / "latin.model")
    open(bad, "wb").write(b'{"a":"\xff"}')
    out = str(tmp_path / "p.csv")
    assert run("predict", "--model", bad, "--data", data, "--out", out) == 3
    assert "not valid JSON ('utf-8' codec can't decode byte 0xff in position 6" in \
        capsys.readouterr().err
    assert not os.path.exists(out)


def test_predict_reads_every_point_after_a_byte_order_mark(workspace, tmp_path):
    _, _, model = workspace
    points = str(tmp_path / "bom.csv")
    open(points, "wb").write(b"\xef\xbb\xbf0.1,0.2,0.3\n0.9,0.8,0.7\n0.5,0.5,0.5\n")
    out = str(tmp_path / "preds.csv")
    assert run("predict", "--model", model, "--data", points, "--out", out) == 0
    lines = open(out).read().splitlines()
    assert lines[1] == "x1,x2,x3,prediction"
    assert [line.split(",")[:3] for line in lines[2:]] == [
        ["0.1", "0.2", "0.3"], ["0.9", "0.8", "0.7"], ["0.5", "0.5", "0.5"]]


def test_fit_on_one_row_exits_three_writing_nothing(tmp_path, capsys):
    one = str(tmp_path / "one.csv")
    open(one, "w").write("a,b,E\n0.1,0.2,0.3\n")
    target = str(tmp_path / "one.model")
    assert run("fit", "--data", one, "--d", "1", "--n-per-term", "0", "--l", "0.3",
               "--seed", "1", "--out", target) == 3
    assert "training set needs at least 2 rows, got 1" in capsys.readouterr().err
    assert not os.path.exists(target)


def test_non_finite_literal_in_model_exits_three(workspace, tmp_path, capsys, resign):
    _, data, model = workspace
    broken = str(tmp_path / "nan.model")
    shutil.copy(model, broken)
    resign(broken, text=lambda body: body.replace('"target_offset":',
                                                  '"target_offset":NaN,"x":', 1))
    assert run("predict", "--model", broken, "--data", data,
               "--out", str(tmp_path / "p.csv")) == 3
    assert "NaN" in capsys.readouterr().err


def test_version_two_model_file_exits_three(workspace, tmp_path, capsys):
    # The layout of earlier builds: one line, a document that holds its
    # version and a checksum over itself without that field.
    _, data, model = workspace
    doc = dict(json.loads(open(model).read().split("\n", 1)[1]), format_version=2)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(text.encode()).hexdigest()
    old = str(tmp_path / "v2.model")
    open(old, "w").write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    assert run("predict", "--model", old, "--data", data,
               "--out", str(tmp_path / "p.csv")) == 3
    assert f"file has version 2, this build reads only version {FORMAT_VERSION}; refit the " \
        f"model to write a version {FORMAT_VERSION} file" in capsys.readouterr().err


@pytest.mark.parametrize("field, edit", [
    ("document.X", lambda doc: doc.update(X=doc["X"][:-1])),  # bad padding
    ("document.X", lambda doc: doc.update(X=doc["X"].replace("+", "-"))),  # url-safe alphabet
    ("gpr.alpha", lambda doc: doc["gpr"].update(alpha="\u00e9" + doc["gpr"]["alpha"][1:])),
    ("gpr.alpha", lambda doc: doc["gpr"].update(alpha=doc["gpr"]["alpha"][:-4])),  # part of a value
    ("gpr.alpha", lambda doc: doc["gpr"].update(alpha=[0.5] * 200)),  # the version 3 list
], ids=["padding", "url-safe", "non-ascii", "partial", "list"])
def test_malformed_payload_exits_three(workspace, tmp_path, capsys, resign, field, edit):
    _, data, model = workspace
    broken = str(tmp_path / "broken.model")
    shutil.copy(model, broken)
    resign(broken, edit)
    assert run("predict", "--model", broken, "--data", data,
               "--out", str(tmp_path / "p.csv")) == 3
    assert capsys.readouterr().err.startswith(f"error: {field}: must be ")


def test_predict_on_a_header_only_file_builds_no_table(workspace, tmp_path, caplog):
    _, _, model = workspace
    points, out = str(tmp_path / "none.csv"), str(tmp_path / "p.csv")
    open(points, "w").write("x1,x2,x3\n")
    with caplog.at_level(logging.DEBUG, logger="hdmrnet"):
        assert run("predict", "--model", model, "--data", points, "--out", out) == 0
    assert "activation table" not in caplog.text
    assert [line for line in open(out).read().splitlines() if not line.startswith("#")] \
        == ["x1,x2,x3,prediction"]


def test_numeric_errors_exit_four(workspace, tmp_path, capsys):
    _, data, _ = workspace
    code = run("fit", "--data", data, "--d", "2", "--n-per-term", "2",
               "--l", "-0.5", "--seed", "1",
               "--out", str(tmp_path / "x.model"))
    assert code == 4
    assert "length scale" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--l", "inf"), ("--l", "1e200"), ("--l", "1e-200"),
                                        ("--noise", "inf"), ("--noise", "nan")])
def test_bad_hyperparameter_exits_four_before_writing(workspace, tmp_path, capsys,
                                                      flag, value):
    _, data, _ = workspace
    target = str(tmp_path / "x.model")
    hyper = {"--l": "0.3", "--noise": "1e-6", flag: value}
    code = run("fit", "--data", data, "--d", "2", "--n-per-term", "2", "--seed", "1",
               "--l", hyper["--l"], "--noise", hyper["--noise"], "--out", target)
    assert code == 4
    assert ("length scale" if flag == "--l" else "noise") in capsys.readouterr().err
    assert not os.path.exists(target)


@pytest.mark.parametrize("flag,value,code,message", [
    ("--l", "inf", 4, "length scale"), ("--noise", "nan", 4, "noise"),
    ("--train", "500", 3, "train_size must be in"), ("--test", "300", 3, "test_size must be in"),
    ("--d", "1,4", 5, "coupling order must be in [1, 3], got 4"),
    ("--n-per-term", "-1", 2, "neurons_per_term must be >= 0"),
    ("--seed", "-1", 2, "seed must be >= 0, got -1"),
    ("--train", "1", 3, "training set needs at least 2 rows, got 1"),
    ("--n-per-term", "99999999999999999999", 2, "sequence exhausted beyond 2**32 - 1 points"),
])
def test_sweep_refuses_bad_settings_before_writing(workspace, tmp_path, capsys,
                                                   flag, value, code, message):
    _, data, _ = workspace
    out_dir = tmp_path / "sweep"
    settings = {"--d": "1,2", "--n-per-term": "2", "--l": "0.3", "--noise": "1e-6",
                "--train": "200", "--test": "100", "--seed": "1", flag: value}
    assert run("sweep", "--data", data, "--out-dir", str(out_dir),
               *(x for kv in settings.items() for x in kv)) == code
    err = capsys.readouterr().err
    assert message in err
    assert not out_dir.exists() or not any(out_dir.iterdir())
    # fit, with the last order and neuron count of the lists, refuses alike
    settings.update({key: settings[key].split(",")[-1] for key in ("--d", "--n-per-term")})
    target = tmp_path / "x.model"
    assert run("fit", "--data", data, "--out", str(target),
               *(x for kv in settings.items() for x in kv)) == code
    assert capsys.readouterr().err == err
    assert not target.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_synth_refuses_bad_noise_before_writing(tmp_path, capsys, value):
    out = tmp_path / "d.csv"
    assert run("synth", "--kind", "additive", "--dim", "2", "--n", "10", "--seed", "1",
               "--noise-std", value, "--out", str(out)) == 3
    assert "noise_std must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_failed_fit_leaves_no_model_file(workspace, tmp_path):
    _, data, _ = workspace
    target = str(tmp_path / "never.model")
    assert run("fit", "--data", data, "--d", "7", "--n-per-term", "2",
               "--l", "0.3", "--seed", "1", "--out", target) == 5
    assert not os.path.exists(target)
    assert not os.path.exists(target + ".report.json")


def test_fit_without_train_scores_all_rows_and_reports_no_table(workspace, tmp_path,
                                                                 capsys):
    # l = 0.03 needs 8 * ceil(1.25 / 0.03) + 1 = 337 table nodes, past 256.
    _, data, _ = workspace
    target = str(tmp_path / "all.model")
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "2", "--l", "0.03",
               "--seed", "1", "--out", target) == 0
    assert "test rmse" not in capsys.readouterr().out
    report = json.load(open(target + ".report.json"))
    assert report["n_train"] == 400 and report["n_test"] == 0
    assert report["test_rmse"] is None and report["test_corr"] is None
    assert report["activation_table"] is None
    assert report["train_rmse"] >= 0


def test_fit_without_a_stable_solve_exits_four_writing_nothing(workspace, tmp_path,
                                                               monkeypatch, capsys):
    _, data, _ = workspace
    monkeypatch.setattr("scipy.linalg.lapack.dpotrf", lambda a, **kwargs: (a, 1))
    target = str(tmp_path / "unstable.model")
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "2", "--l", "0.3",
               "--train", "200", "--seed", "7", "--out", target) == 4
    assert "no backward-stable Cholesky solve even at jitter 0.01" in capsys.readouterr().err
    assert not os.path.exists(target)
    assert not os.path.exists(target + ".report.json")


def test_fit_past_physical_memory_exits_four(workspace, tmp_path, monkeypatch, capsys):
    _, data, _ = workspace
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 1000)
    target = str(tmp_path / "big.model")
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "5",
               "--l", "0.3", "--seed", "1", "--out", target) == 4
    assert "physical memory" in capsys.readouterr().err
    assert not os.path.exists(target)


def test_fit_whose_gram_would_not_fit_exits_four(workspace, tmp_path, monkeypatch, capsys):
    # 400 rows of 3 + 2 * 3 = 9 features at l = 0.05, which takes the Gram
    # route: 28,800 bytes of features and 192 bytes of map arrays fit, the
    # 8 * 400^2 bytes of the Gram matrix do not.
    _, data, _ = workspace
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 10**6)
    target = str(tmp_path / "gram.model")
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "2",
               "--l", "0.05", "--seed", "1", "--out", target) == 4
    assert "Gram matrix" in capsys.readouterr().err
    assert not os.path.exists(target)


def test_synth_and_components_past_physical_memory_exit_four(workspace, tmp_path,
                                                             monkeypatch, capsys):
    # Against 1 MB of memory: 10^5 points of dimension 3, their targets and
    # temporaries need 7.2 MB, and the model's 18 curves of 10^5 points
    # more than 14.4 MB, while the model's own features (29,280 bytes)
    # still load.
    _, _, model = workspace
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 10**6)
    data, curves = str(tmp_path / "big.csv"), str(tmp_path / "curves.csv")
    assert run("synth", "--kind", "pairwise", "--dim", "3", "--n", "100000",
               "--seed", "1", "--out", data) == 4
    assert run("components", "--model", model, "--grid", "100000", "--out", curves) == 4
    assert capsys.readouterr().err.count("physical memory") == 2
    assert not os.listdir(tmp_path)


def test_model_past_physical_memory_exits_three(workspace, tmp_path, monkeypatch, capsys,
                                                resign):
    _, data, model = workspace
    edited = str(tmp_path / "huge.model")
    shutil.copy(model, edited)
    resign(edited, lambda doc: doc["metadata"].update(neurons_per_term=10_000_000))
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 8 * 2**30)
    assert run("predict", "--model", edited, "--data", data,
               "--out", str(tmp_path / "p.csv")) == 3
    assert "physical memory" in capsys.readouterr().err


def _peak_and_counted(monkeypatch, module, argv):
    """(tracemalloc peak, bytes its memory guard counted) of one command,
    run once untraced first so that only the command's own work is seen."""
    counted = []
    check = module._check_memory
    monkeypatch.setattr(module, "_check_memory",
                        lambda needed, what: (counted.append(needed), check(needed, what)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return peak, counted[-1]


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_peak_memory_is_within_the_counted_bytes(kind, tmp_path, monkeypatch):
    peak, counted = _peak_and_counted(
        monkeypatch, hdmrnet.data,
        ["synth", "--kind", kind, "--dim", "3", "--n", "20000", "--seed", "1",
         "--noise-std", "0.1", "--out", str(tmp_path / "d.csv")])
    assert peak <= counted


@pytest.mark.parametrize("directory", [False, True])
def test_components_peak_memory_is_within_the_counted_bytes(tmp_path, monkeypatch, directory):
    model = hdmr_fit(synth("pairwise", 3, 200, seed=1), 1, 1, 0.3)  # 3 curves
    monkeypatch.setattr(hdmrnet.cli, "load_model", lambda path: model)
    out = str(tmp_path / "curves") + os.sep if directory else str(tmp_path / "curves.csv")
    peak, counted = _peak_and_counted(
        monkeypatch, hdmrnet.analysis,
        ["components", "--model", "unused", "--grid", "20000", "--out", out])
    assert peak <= counted
