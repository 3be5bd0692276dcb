"""Command-line workflow tests: every subcommand, exit codes, artifacts."""

import contextlib
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

import hdmrnet.analysis
import hdmrnet.cli
import hdmrnet.data
from hdmrnet.cli import main
from hdmrnet.data import SYNTH_KINDS, synth
from hdmrnet.model import FORMAT_VERSION, hdmr_fit


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


def test_fit_writes_model_and_report(workspace):
    root, _, model = workspace
    report = json.load(open(model + ".report.json"))
    assert report["config"]["command"] == "fit"
    assert report["n_train"] == 200 and report["n_test"] == 200
    assert report["train_rmse"] <= report["test_rmse"]
    assert report["test_corr"] > 0.99
    table = report["activation_table"]
    assert table["nodes"] == 41  # 8 * ceil(1.25 / 0.3) + 1
    assert 0.0 <= table["max_deviation"] <= table["tolerance"]
    doc = json.load(open(model))
    assert doc["format_version"] == FORMAT_VERSION
    assert set(doc) == {"format_version", "metadata", "X", "gpr", "checksum"}
    assert doc["metadata"]["config"]["seed"] == 7


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
        # drop the config comment (echoes --out-dir) and blank the timing cell
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
    config_a["out_dir"] = config_b["out_dir"] = "_"
    assert config_a == config_b  # --jobs never appears in the echo
    summary_a = open(os.path.join(out_a, "summary.csv")).read().splitlines()[1:]
    summary_b = open(os.path.join(out_b, "summary.csv")).read().splitlines()[1:]
    assert summary_a == summary_b
    assert summary_a[0] == "d,N,best_test_rmse"


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
    with pytest.raises(SystemExit) as info:
        run("sweep", "--data", data, "--d", "1,x", "--n-per-term", "2",
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


def test_non_finite_literal_in_model_exits_three(workspace, tmp_path, capsys):
    _, data, model = workspace
    broken = str(tmp_path / "nan.model")
    raw = open(model).read()
    open(broken, "w").write(raw.replace('"target_offset":', '"target_offset":NaN,"x":', 1))
    assert run("predict", "--model", broken, "--data", data,
               "--out", str(tmp_path / "p.csv")) == 3
    assert "NaN" in capsys.readouterr().err


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
    ("--sobol-skip", "-3", 2, "sobol_skip must be >= 0"),
    ("--d", "1,4", 5, "coupling order must be in [1, 3], got 4"),
    ("--n-per-term", "-1", 2, "neurons_per_term must be >= 0"),
    ("--seed", "-1", 2, "seed must be >= 0, got -1"),
    ("--train", "1", 3, "training set needs at least 2 rows, got 1"),
    ("--sobol-skip", "4294967295", 2, "sequence exhausted beyond 2**32 - 1 points"),
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
    monkeypatch.setattr("hdmrnet.gpr.dpotrf", lambda a, **kwargs: (a, 1))
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
    # 400 rows of 3 + 2 * 3 = 9 features: 28,800 bytes of features and
    # 192 bytes of map arrays fit, the 8 * 400^2 bytes of the Gram matrix
    # do not.
    _, data, _ = workspace
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 10**6)
    target = str(tmp_path / "gram.model")
    assert run("fit", "--data", data, "--d", "2", "--n-per-term", "2",
               "--l", "0.3", "--seed", "1", "--out", target) == 4
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


def test_model_past_physical_memory_exits_three(workspace, tmp_path, monkeypatch, capsys):
    _, data, model = workspace
    doc = json.load(open(model))
    del doc["checksum"]
    doc["metadata"]["neurons_per_term"] = 10_000_000
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(payload.encode()).hexdigest()
    edited = str(tmp_path / "huge.model")
    json.dump(doc, open(edited, "w"))
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
