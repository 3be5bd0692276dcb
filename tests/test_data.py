"""Dataset loading, splitting, and synthetic target tests."""

import math
import os

import numpy as np
import pytest

from hdmrnet import Dataset, load_csv, load_matrix, save_csv, split, synth
from hdmrnet.data import SYNTH_KINDS
from hdmrnet.errors import DatasetError, InvalidHyperparameterError


# ---------------------------------------------------------------------------
# Synthetic targets
# ---------------------------------------------------------------------------


def test_synth_shapes_and_determinism():
    for kind in SYNTH_KINDS:
        a = synth(kind, 3, 50, seed=4)
        b = synth(kind, 3, 50, seed=4)
        c = synth(kind, 3, 50, seed=5)
        assert a.X.shape == (50, 3) and a.t.shape == (50,)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.t, b.t)
        assert not np.array_equal(a.X, c.X)
        assert (a.X >= 0).all() and (a.X <= 1).all()


def test_synth_closed_forms():
    # recompute targets with plain python loops as an independent oracle
    ds = {kind: synth(kind, 3, 8, seed=7) for kind in SYNTH_KINDS}
    for kind, d in ds.items():
        for r in range(8):
            x = d.X[r]
            if kind == "additive":
                expected = sum(math.sin(2 * math.pi * v) for v in x)
            elif kind == "pairwise":
                expected = x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
            elif kind == "product":
                expected = (1 + x[0]) * (1 + x[1]) * (1 + x[2])
            else:
                z = [v - 0.3 for v in x]
                expected = sum((1 - math.exp(-v)) ** 2 for v in z)
                expected += 0.5 * (z[0] * z[1] + z[0] * z[2] + z[1] * z[2])
            assert d.t[r] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_synth_noise_leaves_points_alone():
    clean = synth("additive", 2, 30, seed=1)
    noisy = synth("additive", 2, 30, seed=1, noise_std=0.1)
    again = synth("additive", 2, 30, seed=1, noise_std=0.1)
    assert np.array_equal(clean.X, noisy.X)
    assert not np.array_equal(clean.t, noisy.t)
    assert np.array_equal(noisy.t, again.t)
    assert np.std(noisy.t - clean.t) == pytest.approx(0.1, rel=0.5)


def test_synth_validation():
    with pytest.raises(DatasetError):
        synth("cubic", 3, 10, seed=0)
    with pytest.raises(DatasetError):
        synth("pairwise", 1, 10, seed=0)
    with pytest.raises(DatasetError):
        synth("additive", 0, 10, seed=0)
    with pytest.raises(DatasetError):
        synth("additive", 2, 0, seed=0)
    with pytest.raises(DatasetError):
        synth("additive", 2, 10, seed=0, noise_std=-1.0)


def test_synth_past_physical_memory_is_refused(monkeypatch):
    # 10 pairwise points of dimension 3, their targets and temporaries:
    # 8 * 10 * (2 * 3 + 3) = 720 bytes
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 719)
    with pytest.raises(InvalidHyperparameterError, match="10 points of dimension 3"):
        synth("pairwise", 3, 10, seed=0)
    monkeypatch.setattr("hdmrnet.data._MEMORY_BYTES", 720)
    assert synth("pairwise", 3, 10, seed=0).n == 10


# ---------------------------------------------------------------------------
# CSV round trip and parsing
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    ds = synth("product", 4, 25, seed=3)
    path = str(tmp_path / "d.csv")
    save_csv(
        path,
        ds.column_names + [ds.target_name],
        [ds.X[:, i] for i in range(4)] + [ds.t],
    )
    back = load_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.t, ds.t)
    assert back.column_names == ds.column_names
    assert back.target_name == "target"


def test_load_csv_header_and_target_selection(tmp_path):
    path = str(tmp_path / "d.csv")
    open(path, "w").write("a,b,E\n1,2,3\n4,5,6\n")
    ds = load_csv(path)
    assert ds.column_names == ["a", "b"] and ds.target_name == "E"
    assert np.array_equal(ds.t, [3.0, 6.0])
    mid = load_csv(path, target="b")
    assert mid.column_names == ["a", "E"]
    assert np.array_equal(mid.t, [2.0, 5.0])
    assert np.array_equal(mid.X, [[1.0, 3.0], [4.0, 6.0]])


def test_load_csv_headerless_names(tmp_path):
    path = str(tmp_path / "d.csv")
    open(path, "w").write("1,2,3\n4,5,6\n")
    ds = load_csv(path)
    assert ds.column_names == ["x1", "x2"] and ds.target_name == "target"


def test_load_csv_skips_comments_and_blanks(tmp_path):
    path = str(tmp_path / "d.csv")
    open(path, "w").write("# config: {}\n\na,E\n# interior note\n1,2\n\n3,4\n")
    ds = load_csv(path)
    assert ds.n == 2
    assert np.array_equal(ds.t, [2.0, 4.0])


def test_load_csv_errors_cite_physical_line_numbers(tmp_path):
    path = str(tmp_path / "d.csv")
    open(path, "w").write("# one\na,E\n1,2\nbad,4\n")
    with pytest.raises(DatasetError, match="line 4.*'bad'.*'a'"):
        load_csv(path)
    open(path, "w").write("a,E\n1,2\n3,nan\n")
    with pytest.raises(DatasetError, match="line 3.*non-finite"):
        load_csv(path)
    open(path, "w").write("a,E\n1,2\n3,inf\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_csv(path)
    open(path, "w").write("a,E\n1,2\n3\n")
    with pytest.raises(DatasetError, match="line 3.*expected 2 cells"):
        load_csv(path)


def test_load_csv_structural_errors(tmp_path):
    path = str(tmp_path / "d.csv")
    open(path, "w").write("only\n1\n2\n")
    with pytest.raises(DatasetError, match="at least 2 columns"):
        load_csv(path)
    open(path, "w").write("# nothing here\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(path)
    open(path, "w").write("a,a\n1,2\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_csv(path)
    open(path, "w").write("a,E\n1,2\n")
    with pytest.raises(DatasetError, match="no column named 'Q'"):
        load_csv(path, target="Q")
    with pytest.raises(DatasetError, match="cannot read"):
        load_csv(str(tmp_path / "absent.csv"))


def test_load_matrix_allows_zero_rows(tmp_path):
    path = str(tmp_path / "pts.csv")
    open(path, "w").write("x1,x2\n")
    X, names = load_matrix(path)
    assert X.shape == (0, 2) and names == ["x1", "x2"]
    open(path, "w").write("0.5,0.25\n0.75,0.125\n")
    X, names = load_matrix(path)
    assert np.array_equal(X, [[0.5, 0.25], [0.75, 0.125]])
    assert names == ["x1", "x2"]


# ---------------------------------------------------------------------------
# Dataset object and splits
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(DatasetError):
        Dataset(X=np.zeros((3, 2)), t=np.zeros(4))
    with pytest.raises(DatasetError):
        Dataset(X=np.array([[np.nan, 0.0]]), t=np.zeros(1))
    with pytest.raises(DatasetError):
        Dataset(X=np.zeros((2, 2)), t=np.array([1.0, np.inf]))
    with pytest.raises(DatasetError):
        Dataset(X=np.zeros((2, 2)), t=np.zeros(2), column_names=["a"])


def test_fingerprint_tracks_content():
    ds = synth("additive", 2, 10, seed=0)
    fp = ds.fingerprint()
    assert fp["rows"] == 10 and fp["columns"] == ["x1", "x2"]
    assert fp == ds.fingerprint()
    changed = Dataset(X=ds.X.copy(), t=ds.t + 1e-9, column_names=list(ds.column_names))
    assert changed.fingerprint()["sha256"] != fp["sha256"]


def test_split_is_a_deterministic_partition():
    ds = synth("pairwise", 3, 100, seed=6)
    train, test = split(ds, 70, seed=11)
    train2, test2 = split(ds, 70, seed=11)
    assert np.array_equal(train.X, train2.X) and np.array_equal(test.t, test2.t)
    assert train.n == 70 and test.n == 30
    # every original row appears exactly once across the two sides
    merged = np.vstack([train.X, test.X])
    assert merged.shape == ds.X.shape
    order = np.lexsort(merged.T)
    base = np.lexsort(ds.X.T)
    assert np.array_equal(merged[order], ds.X[base])
    # rows keep their targets
    lookup = {tuple(row): v for row, v in zip(ds.X, ds.t)}
    for row, v in zip(train.X, train.t):
        assert lookup[tuple(row)] == v


def test_split_seed_matters_and_test_cap_applies():
    ds = synth("pairwise", 3, 100, seed=6)
    a, _ = split(ds, 70, seed=1)
    b, _ = split(ds, 70, seed=2)
    assert not np.array_equal(a.X, b.X)
    train, test = split(ds, 70, seed=1, test_size=10)
    assert train.n == 70 and test.n == 10


def test_split_validation():
    ds = synth("pairwise", 3, 20, seed=6)
    with pytest.raises(DatasetError):
        split(ds, 0, seed=1)
    with pytest.raises(DatasetError):
        split(ds, 20, seed=1)
    with pytest.raises(DatasetError):
        split(ds, 10, seed=1, test_size=11)
    with pytest.raises(DatasetError):
        split(ds, 10, seed=1, test_size=0)


def test_failed_save_csv_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("previous contents\n")
    # the third cell cannot be formatted, after two rows were written
    with pytest.raises(TypeError):
        save_csv(str(target), ["a"], [[1.0, 2.0, None]], ["config: {}"])
    assert target.read_text() == "previous contents\n"
    assert list(tmp_path.iterdir()) == [target]
    with pytest.raises(OSError):
        save_csv(str(tmp_path / "missing_dir" / "out.csv"), ["a"], [[1.0]])
    assert list(tmp_path.iterdir()) == [target]


def test_saved_csv_gets_the_umask_mode(tmp_path):
    path = tmp_path / "out.csv"
    save_csv(str(path), ["a"], [[1.0]])
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


# ---------------------------------------------------------------------------
# One reader behind load_csv and load_matrix
# ---------------------------------------------------------------------------


def test_headerless_bad_target_cell_names_the_target_column(tmp_path):
    path = str(tmp_path / "d.csv")
    open(path, "w").write("1,2,3\n4,5,oops\n")
    with pytest.raises(DatasetError, match="line 2: cannot parse 'oops' in column 'target'"):
        load_csv(path)
    with pytest.raises(DatasetError, match="line 2: cannot parse 'oops' in column 'x3'"):
        load_matrix(path)


@pytest.mark.parametrize("text", [
    "a,b,E\n1,2,3\n4,5,6\n",
    "1,2,3\n4.5,5,6\n",
    "# config: {}\n\na,b,E\n# interior note\n1,2,3\n\n4,5,6e-3\n",
    "# one\n\n0.25,2,3\n# two\n4,5,6\n",
])
def test_load_csv_is_load_matrix_minus_the_target(tmp_path, text):
    path = str(tmp_path / "d.csv")
    open(path, "w").write(text)
    values, names = load_matrix(path)
    ds = load_csv(path)
    assert np.array_equal(ds.X, values[:, :-1])
    assert np.array_equal(ds.t, values[:, -1])
    assert ds.column_names == names[:-1]
