import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausskl
from gausskl import cli
from gausskl.cli import main
from gausskl import (derive_seed, divergence, harness, kl_gaussian, random_diag_spectrum,
                     random_spd, read_matrix_csv, validate_spd, write_matrix_csv)
from oracles import kl_mpmath, weakly_correlated


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def count_factored(monkeypatch):
    # Matrices factored by np.linalg.cholesky; a stacked call counts its leading dimension.
    calls = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: calls.append(len(a) if a.ndim == 3 else 1) or original(a))
    return calls


class TestKlCommand:
    def test_worked_example(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_csv(x, [[1, 0], [0, 1]])
        write_csv(y, [[1, 0.5], [0.5, 1]])
        code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["inputs"]["dim"] == 2
        assert report["results"]["kl_nats"] == pytest.approx(0.14384103622589045, abs=1e-9)
        assert report["results"]["bound_nats"] == 0.0
        assert report["results"]["gap_nats"] == pytest.approx(0.14384103622589045, abs=1e-9)

    def test_identical_files_exact_zero(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_csv(x, [[2.0, 0.3], [0.3, 1.0]])
        code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(x))
        assert code == 0
        assert json.loads(out)["results"]["kl_nats"] == 0.0

        # A diagonal file also reports the bound and gap, both exactly +0.
        d = tmp_path / "d.csv"
        write_csv(d, [[0.3, 0, 0], [0, 7.0, 0], [0, 0, 1e-5]])
        code, out, _ = run(capsys, "kl", "--x", str(d), "--y", str(d))
        assert code == 0
        results = json.loads(out)["results"]
        assert results == {"kl_nats": 0.0, "bound_nats": 0.0, "gap_nats": 0.0}
        for key in results:
            assert f'"{key}": 0.0' in out
        assert "-0.0" not in out

    def test_no_bound_without_diagonal_reference(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_csv(x, [[1, 0.1], [0.1, 1]])
        write_csv(y, [[1, 0], [0, 1]])
        code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 0
        results = json.loads(out)["results"]
        assert "kl_nats" in results and "bound_nats" not in results

        # -0.0 off the diagonal is a literal zero; 1e-300 is not.  An asymmetric
        # pair within tolerance that averages to exactly 0 certifies as diagonal.
        full = {"kl_nats", "bound_nats", "gap_nats"}
        for rows, keys in (([[2.0, -0.0], [-0.0, 3.0]], full),
                           ([[2.0, 1e-300], [1e-300, 3.0]], {"kl_nats"}),
                           ([[2.0, 1e-9], [-1e-9, 3.0]], full)):
            write_csv(x, rows)
            code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
            assert code == 0
            assert set(json.loads(out)["results"]) == keys

    @pytest.mark.parametrize("x_diagonal", [False, True])
    def test_utf8_bom_files_give_the_same_report(self, tmp_path, capsys, x_diagonal):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark (EF BB BF), here with
        # CRLF line ends too: the report is the BOM-free files' report.
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(x, [[2.0, 0.0], [0.0, 0.5]] if x_diagonal else [[2.0, 0.3], [0.3, 0.5]])
        write_csv(y, [[1.0, -0.25], [-0.25, 3.0]])
        bom = {}
        for path in (x, y):
            bom[path] = tmp_path / f"bom_{path.name}"
            with open(bom[path], "w", encoding="utf-8", newline="") as fh:
                fh.write("\ufeff" + path.read_text().replace("\n", "\r\n"))
            assert bom[path].read_bytes()[:3] == b"\xef\xbb\xbf"
        reports = []
        for files in ((x, y), (bom[x], bom[y])):
            code, out, err = run(capsys, "kl", "--x", str(files[0]), "--y", str(files[1]))
            assert (code, err) == (0, "")
            reports.append(out.replace(str(files[0]), "X").replace(str(files[1]), "Y"))
        assert reports[1] == reports[0]
        assert ("bound_nats" in json.loads(reports[0])["results"]) == x_diagonal

    def test_text_and_json_report_identical_numbers(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_csv(x, [[1, 0], [0, 4]])
        write_csv(y, [[2, 0.25], [0.25, 8]])
        _, out_json, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
        _, out_text, _ = run(capsys, "kl", "--x", str(x), "--y", str(y),
                             "--format", "text")
        decoded = json.loads(out_json)["results"]
        for line in out_text.strip().splitlines():
            key, value = line.split(" = ")
            assert decoded[key] == float(value)

    def test_non_square_exits_2_with_diagnostic(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_csv(x, [[1, 0, 0], [0, 1, 0]])
        write_csv(y, [[1, 0], [0, 1]])
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 2
        assert "NotSquare" in err

    def test_not_positive_definite_exits_2(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_csv(x, [[1, 2], [2, 1]])
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(x))
        assert code == 2
        assert "NotPositiveDefinite" in err

    def test_asymmetric_exits_2(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_csv(x, [[1, 0.6], [0.5, 1]])
        write_csv(y, [[1, 0], [0, 1]])
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 2
        assert "AsymmetryExceedsTolerance" in err

    def test_garbage_file_exits_2(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        x.write_text("not,a\nmatrix,here\n")
        y = tmp_path / "y.csv"
        write_csv(y, [[1, 0], [0, 1]])
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 2
        assert "MatrixParseError" in err

    @pytest.mark.parametrize("content", [
        "1.0,0.0\n0.0,1.0\n".encode("utf-16"),  # BOM FF FE, then two bytes a character
        b"\xff\n",
    ], ids=["utf16", "lone_0xff"])
    def test_non_utf8_file_exits_2_naming_it(self, tmp_path, capsys, content):
        x = tmp_path / "x.csv"
        x.write_bytes(content)
        y = tmp_path / "y.csv"
        write_csv(y, [[1, 0], [0, 1]])
        code, out, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: MatrixParseError: {x}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("dx, dy", [(2, 3), (3, 2)])
    def test_dimension_mismatch_exits_2(self, tmp_path, capsys, dx, dy):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_matrix_csv(x, np.eye(dx))
        write_matrix_csv(y, np.eye(dy))
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 2
        assert "DimensionMismatch" in err


class TestKlDiagonalReference:
    # A reference file whose only nonzeros are a positive, finite diagonal is
    # scored as a spectrum: never factored, and its divergence is bound + gap.
    @pytest.mark.parametrize("x_diagonal, y_diagonal, factored",
                             [(True, False, 1), (False, False, 2), (True, True, 0),
                              (False, True, 1)],
                             ids=["diagonal-dense", "dense-dense", "diagonal-diagonal",
                                  "dense-diagonal"])
    def test_factors_only_dense_files(self, tmp_path, capsys, monkeypatch, x_diagonal,
                                      y_diagonal, factored):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        for path, diagonal, seed in ((x, x_diagonal, 1), (y, y_diagonal, 2)):
            s = random_diag_spectrum(6, seed).as_matrix() if diagonal else random_spd(6, seed, 10.0)
            write_matrix_csv(path, s.entries)
        calls, solves, kl = count_factored(monkeypatch), [], divergence._kl
        # A diagonal reference is scored by kl_gap_diagonal alone: nothing is solved for it.
        monkeypatch.setattr(divergence, "_kl", lambda lx, ly: solves.append(1) or kl(lx, ly))
        code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 0
        assert sum(calls) == factored
        assert len(solves) == (0 if x_diagonal else 1)
        assert ("bound_nats" in json.loads(out)["results"]) == x_diagonal

    def test_divergence_is_bound_plus_gap(self, tmp_path, capsys):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        cases = [(m, seed) for m in range(1, 9) for seed in range(4)] + [(64, 0)]
        for m, seed in cases:
            write_matrix_csv(x, random_diag_spectrum(m, derive_seed(seed, m)).as_matrix().entries)
            for sy in (random_spd(m, derive_seed(seed, 100 + m), 1e4),
                       random_diag_spectrum(m, derive_seed(seed, 200 + m)).as_matrix()):
                write_matrix_csv(y, sy.entries)
                code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
                assert code == 0
                r = json.loads(out)["results"]
                assert r["kl_nats"] == r["bound_nats"] + r["gap_nats"], (m, seed)
                assert r["kl_nats"] >= r["bound_nats"], (m, seed)

    def test_divergence_and_gap_match_mpmath(self, tmp_path, capsys):
        # Weak correlations live in sy's off-diagonal factor entries, not in its
        # pivots: the report must keep them, as accurately as kl_gaussian does.
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        subjects = [weakly_correlated(m, rho, seed) for m in (2, 3, 5, 8)
                    for rho in (1e-2, 1e-4, 1e-9) for seed in range(2)]
        subjects += [random_spd(m, derive_seed(3, m), 1e4).entries for m in (2, 3, 5, 8)]
        for i, sy in enumerate(subjects):
            m = len(sy)
            write_matrix_csv(y, sy)
            for vx in (np.diag(sy).copy(), random_diag_spectrum(m, derive_seed(4, i)).variances):
                write_matrix_csv(x, np.diag(vx))
                code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
                assert code == 0
                r = json.loads(out)["results"]
                kl_true, gap_true = kl_mpmath(np.diag(vx), sy), kl_mpmath(np.diag(np.diag(sy)), sy)
                kl_dense = kl_gaussian(validate_spd(np.diag(vx)), validate_spd(sy))
                assert abs(r["kl_nats"] - kl_true) <= (abs(kl_dense - kl_true)
                                                       + 1e-14 * kl_true), (i, vx)
                assert abs(r["gap_nats"] - gap_true) <= 1e-14 * gap_true, i
                assert r["kl_nats"] == r["bound_nats"] + r["gap_nats"], i

    def test_weak_correlation_is_not_lost(self, tmp_path, capsys):
        # L22 = sqrt(1 - 1e-18) rounds to 1: only L21 carries the correlation.
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(x, np.eye(2))
        write_matrix_csv(y, np.array([[1.0, 1e-9], [1e-9, 1.0]]))
        code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 0
        r = json.loads(out)["results"]
        assert r["bound_nats"] == 0.0
        assert r["kl_nats"] == r["gap_nats"] == pytest.approx(5e-19, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("entry", [0.0, -1.0, "nan", "inf"])
    def test_bad_diagonal_entry_not_positive_definite(self, tmp_path, capsys, entry):
        x = tmp_path / "x.csv"
        write_csv(x, [[1, 0, 0], [0, entry, 0], [0, 0, 2]])
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(x))
        assert code == 2
        assert "NotPositiveDefinite" in err

    def test_oversize_identity_value_error(self, tmp_path, capsys, monkeypatch):
        # Rejected by its row count before it is parsed, and before the subject is read.
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(x, np.eye(513))
        write_csv(y, [[1, 0], [0, 1]])

        def never(*args, **kwargs):
            raise AssertionError("np.loadtxt called on an oversize file")

        monkeypatch.setattr(np, "loadtxt", never)
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 2
        assert "error: ValueError: " in err and "maximum 512" in err

    def test_overwide_first_row_value_error(self, tmp_path, capsys, monkeypatch):
        # A 1 x 513 file is refused by its first row's field count, before it is parsed.
        x = tmp_path / "x.csv"
        x.write_text(",".join(["1"] * 513) + "\n")

        def never(*args, **kwargs):
            raise AssertionError("np.loadtxt called on an over-wide file")

        monkeypatch.setattr(np, "loadtxt", never)
        with pytest.raises(ValueError, match="dimension 513 exceeds supported maximum 512"):
            read_matrix_csv(x)
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(x))
        assert code == 2
        assert "error: ValueError: dimension 513 exceeds supported maximum 512" in err


class TestGenCommand:
    def test_round_trip_divergence_exactly_zero(self, tmp_path, capsys):
        # gen never reads its file back, so the round trip is checked here:
        # the file parses to the drawn entries bit for bit and certifies.
        cases = [(dim, cond) for dim in (1, 8, 64, 512) for cond in (1.0, 1e4, None)]
        for seed, (dim, cond) in enumerate(cases + [(8, 1e10)], 42):
            out = tmp_path / f"m{seed}.csv"
            flags = ("--diagonal",) if cond is None else ("--cond", repr(cond))
            code, _, _ = run(capsys, "gen", "--dim", str(dim), "--seed", str(seed), *flags,
                             "--out", str(out))
            assert code == 0
            drawn = (random_diag_spectrum(dim, seed).as_matrix() if cond is None
                     else random_spd(dim, seed, cond)).entries
            assert read_matrix_csv(out).tobytes() == drawn.tobytes()
            code, out_kl, _ = run(capsys, "kl", "--x", str(out), "--y", str(out))
            assert code == 0
            assert json.loads(out_kl)["results"]["kl_nats"] == 0.0

    def test_out_may_be_a_device(self, capsys):
        code, out, _ = run(capsys, "gen", "--dim", "3", "--seed", "1", "--out", os.devnull)
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    @pytest.mark.parametrize("flags, factored", [((), 1), (("--diagonal",), 0)],
                             ids=["dense", "diagonal"])
    def test_factors_only_the_drawn_matrix(self, tmp_path, capsys, monkeypatch, flags,
                                           factored):
        calls = count_factored(monkeypatch)
        code, _, _ = run(capsys, "gen", "--dim", "4", "--seed", "5", *flags,
                         "--out", str(tmp_path / "a.csv"))
        assert code == 0
        assert sum(calls) == factored

    def test_diagonal_flag_zero_off_diagonals(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "gen", "--dim", "2", "--seed", "7",
                         "--cond", "100", "--diagonal", "--out", str(out))
        assert code == 0
        m = read_matrix_csv(out)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert m[0, 0] > 0.0 and m[1, 1] > 0.0

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "gen", "--dim", "4", "--seed", "3", "--cond", "50", "--out", str(a))
        run(capsys, "gen", "--dim", "4", "--seed", "3", "--cond", "50", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--dim", "2", "--seed", "1",
                           "--out", str(tmp_path / "missing" / "a.csv"))
        assert code == 2
        assert "Error" in err or "error" in err

    @pytest.mark.parametrize("flags", [(), ("--diagonal",)], ids=["dense", "diagonal"])
    def test_oversize_dimension_rejected_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "big.csv"
        code, _, err = run(capsys, "gen", "--dim", "513", "--seed", "1", *flags,
                           "--out", str(out))
        assert code == 2
        assert "ValueError" in err
        assert not out.exists()

    def test_draw_that_lapack_rejects_exits_2(self, tmp_path, capsys):
        # At condition target 1e30 the draw is symmetric and finite, but not numerically SPD.
        out = tmp_path / "a.csv"
        code, _, err = run(capsys, "gen", "--dim", "8", "--seed", "1", "--cond", "1e30",
                           "--out", str(out))
        assert code == 2
        assert "error: NotPositiveDefinite: " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [(), ("--diagonal",)], ids=["dense", "diagonal"])
    @pytest.mark.parametrize("cond", ["nan", "inf"])
    def test_non_finite_condition_target_exits_2(self, tmp_path, capsys, cond, flags):
        out = tmp_path / "a.csv"
        code, _, err = run(capsys, "gen", "--dim", "3", "--seed", "1", "--cond", cond, *flags,
                           "--out", str(out))
        assert code == 2
        assert f"ValueError: condition_target must be finite and >= 1, got {cond}" in err
        assert not out.exists()


def test_gen_and_kl_in_a_fresh_interpreter(tmp_path):
    # The user's path: no test module has imported scipy.linalg there, so the
    # package's own LAPACK load is the only one.
    env = {**os.environ, "PYTHONPATH": str(Path(gausskl.__file__).resolve().parents[1])}

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "gausskl.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    cli("gen", "--dim", "70", "--seed", "1", "--out", str(x))
    cli("gen", "--dim", "70", "--seed", "2", "--cond", "100", "--out", str(y))
    kl = json.loads(cli("kl", "--x", str(x), "--y", str(y)))["results"]["kl_nats"]
    sx, sy = (validate_spd(read_matrix_csv(path)) for path in (x, y))
    assert kl == kl_gaussian(sx, sy) > 0.0


def test_overflowing_asymmetry_exits_2_with_warnings_as_errors(tmp_path):
    # Under -W error a RuntimeWarning would escape main's handler and exit 1, "violation found".
    env = {**os.environ, "PYTHONPATH": str(Path(gausskl.__file__).resolve().parents[1])}
    x = tmp_path / "x.csv"
    write_csv(x, [[1e308, 1e308], [-1e308, 1e308]])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gausskl.cli", "kl",
                           "--x", str(x), "--y", str(x)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: AsymmetryExceedsTolerance: relative asymmetry inf exceeds tolerance 1.0e-08"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_gen_to_a_stdout_pipe_returns():
    # The CSV, then the report, on one pipe; gen does not read the pipe back.
    env = {**os.environ, "PYTHONPATH": str(Path(gausskl.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "gausskl.cli", "gen", "--dim", "3",
                           "--seed", "4", "--out", "/dev/stdout"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    *rows, report = proc.stdout.splitlines()
    assert json.loads(report)["status"] == "ok"
    drawn = random_spd(3, 4, 10.0).entries
    assert np.loadtxt(rows, delimiter=",", ndmin=2).tobytes() == drawn.tobytes()


class TestVerifyCommand:
    def test_single_prop_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--prop", "p3",
                           "--trials", "200", "--dim", "3", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["proposition"] == "p3"
        assert report["violations"] == 0

    def test_all_props(self, capsys):
        code, out, _ = run(capsys, "verify", "--prop", "all", "--trials", "5",
                           "--dim", "2", "--seed", "1")
        assert code == 0
        combined = json.loads(out)
        assert combined["proposition"] == "all"
        assert [r["proposition"] for r in combined["reports"]] == ["p1", "p2", "p3", "c1"]
        assert combined["violations"] == 0

    def test_zero_trials_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--prop", "p3", "--trials", "0",
                           "--dim", "4", "--seed", "1")
        assert code == 2
        assert "ValueError" in err

    def test_blocks_option(self, capsys):
        code, out, _ = run(capsys, "verify", "--prop", "p2", "--trials", "20",
                           "--dim", "5", "--seed", "2", "--blocks", "2,1,2")
        assert code == 0
        assert "blocks=2x1x2" in json.loads(out)["config_digest"]

    def test_invalid_prop_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--prop", "p9"])
        assert excinfo.value.code == 2

    def test_violations_exit_1(self, capsys, monkeypatch):
        from gausskl.harness import PropertyReport
        import gausskl.cli as cli_mod
        stub = PropertyReport("p3", 5, 2, -1e-3, "stub")
        monkeypatch.setattr(cli_mod, "check_prop3", lambda *a, **k: stub)
        code, out, _ = run(capsys, "verify", "--prop", "p3", "--trials", "5",
                           "--dim", "2", "--seed", "1")
        assert code == 1
        assert json.loads(out)["violations"] == 2

    @pytest.mark.parametrize("prop, campaign", [("p1", "check_prop1"), ("c1", "check_c1")])
    def test_memory_error_exits_2(self, capsys, monkeypatch, prop, campaign):
        # Exit 1 means a violation was found; a request too large for memory is an error.
        import gausskl.cli as cli_mod

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli_mod, campaign, too_large)
        code, out, err = run(capsys, "verify", "--prop", prop, "--trials", "1",
                             "--dim", "1", "--samples", "10000000000000")
        assert code == 2
        assert out == ""
        assert err == "error: MemoryError: Unable to allocate 72.8 TiB for an array\n"

    def test_p2_needs_dim_two(self, capsys):
        code, _, err = run(capsys, "verify", "--prop", "p2", "--trials", "5",
                           "--dim", "1", "--seed", "1")
        assert code == 2
        assert "ValueError" in err

    @pytest.mark.parametrize("flags", [("--dim", "1"), ("--dim", "2", "--blocks", "2,x"),
                                       ("--dim", "2", "--blocks", "0,2"),
                                       ("--dim", "2", "--blocks", "5"),
                                       ("--dim", "2", "--blocks", "300,300")],
                             ids=["dim1", "bad-blocks", "zero-block", "one-block", "oversize"])
    def test_all_rejects_bad_blocks_before_any_campaign(self, capsys, monkeypatch, flags):
        import gausskl.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a campaign ran before the p2 blocks were checked")

        for name in ("check_prop1", "check_prop2", "check_prop3", "check_c1"):
            monkeypatch.setattr(cli_mod, name, never)
        code, out, err = run(capsys, "verify", "--prop", "all", "--trials", "5",
                             "--seed", "1", *flags)
        assert code == 2
        assert out == ""
        assert "ValueError" in err

    @pytest.mark.parametrize("prop", ["p1", "p3", "c1"])
    def test_dim_zero_is_a_value_error(self, capsys, prop):
        code, _, err = run(capsys, "verify", "--prop", prop, "--trials", "2",
                           "--dim", "0", "--seed", "1")
        assert code == 2
        assert "ValueError: dim must be >= 1, got 0" in err

    @pytest.mark.parametrize("cond", ["nan", "inf"])
    @pytest.mark.parametrize("prop", ["p3", "p2", "p1", "c1"])
    def test_non_finite_condition_target_exits_2(self, capsys, prop, cond):
        code, out, err = run(capsys, "verify", "--prop", prop, "--trials", "3",
                             "--dim", "2", "--seed", "1", "--cond", cond)
        assert code == 2
        assert out == ""
        assert f"ValueError: condition_target must be finite and >= 1, got {cond}" in err

    @pytest.mark.parametrize("cond", ["nan", "inf", "0.5"])
    def test_all_rejects_bad_condition_target_before_any_campaign(self, capsys, monkeypatch,
                                                                  cond):
        import gausskl.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a campaign ran before --cond was checked")

        for name in ("check_prop1", "check_prop2", "check_prop3", "check_c1"):
            monkeypatch.setattr(cli_mod, name, never)
        code, out, err = run(capsys, "verify", "--prop", "all", "--trials", "1",
                             "--cond", cond)
        assert code == 2
        assert out == ""
        assert f"ValueError: condition_target must be finite and >= 1, got {cond}" in err


class _NoArrayDraws:
    # A generator whose scalar uniform draw works and whose array draws fail.
    def uniform(self, low, high, size=None):
        assert size is None, f"drew {size} uniforms before the dimension was checked"
        return 0.5 * (low + high)

    def standard_normal(self, size=None):
        raise AssertionError(f"drew {size} normals before the dimension was checked")


@pytest.mark.parametrize("argv", [("verify", "--prop", "p3", "--trials", "1"),
                                  ("verify", "--prop", "c1", "--trials", "1"),
                                  ("verify", "--prop", "p1", "--trials", "1"),
                                  ("gen", "--seed", "1", "--diagonal", "--out", os.devnull),
                                  ("gen", "--seed", "1", "--out", os.devnull)],
                         ids=["p3", "c1", "p1", "gen-diagonal", "gen-dense"])
def test_oversize_dimension_refused_before_any_draw(capsys, monkeypatch, argv):
    # Every random matrix and spectrum starts with a log-uniform draw, which checks
    # the dimension first; nothing of the requested size is drawn.
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoArrayDraws())
    monkeypatch.setattr(harness, "_generators", lambda seeds: [_NoArrayDraws() for _ in seeds])
    code, out, err = run(capsys, *argv, "--dim", "5000000")
    assert code == 2
    assert out == ""
    assert "error: ValueError: dimension 5000000 exceeds supported maximum 512" in err


def test_kl_and_gen_reports_keep_their_key_order(tmp_path, capsys):
    # One envelope for both commands: command, inputs, results, status, in that order.
    out = tmp_path / "g.csv"
    code, gen_out, _ = run(capsys, "gen", "--dim", "3", "--seed", "1", "--out", str(out))
    assert code == 0
    assert gen_out == ('{"command": "gen", "inputs": {"dim": 3, "seed": 1, "cond": 10.0, '
                       f'"diagonal": false}}, "results": {{"out": {json.dumps(str(out))}}}, '
                       '"status": "ok"}\n')
    code, kl_out, _ = run(capsys, "kl", "--x", str(out), "--y", str(out))
    assert code == 0
    report = json.loads(kl_out)
    assert list(report) == ["command", "inputs", "results", "status"]
    assert report["command"] == "kl" and report["status"] == "ok"
    assert list(report["inputs"]) == ["x", "y", "dim"]


def test_numbers_round_trip_through_json(tmp_path, capsys):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    write_csv(x, [[1, 0], [0, 1]])
    write_csv(y, [[1.25, 0.125], [0.125, 2.5]])
    _, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
    decoded = json.loads(out)
    assert json.loads(json.dumps(decoded)) == decoded
    for v in decoded["results"].values():
        assert np.isfinite(v)


class TestParserBuiltOnce:
    # main() builds its argparse parser once per process and reuses it.
    def test_calls_after_a_failing_verify_are_unchanged(self, tmp_path, capsys):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(x, [[2.0, 0.3], [0.3, 1.0]])
        write_csv(y, [[1.0, -0.2], [-0.2, 3.0]])
        kl = ("kl", "--x", str(x), "--y", str(y), "--format", "text")
        first = run(capsys, *kl)
        assert first[0] == 0
        failed = run(capsys, "verify", "--prop", "p3", "--trials", "0")
        assert failed[0] == 2 and "ValueError" in failed[2]
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--prop", "p9"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run(capsys, *kl) == first
        assert run(capsys, "verify", "--prop", "p3", "--trials", "0") == failed
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [["--help"], ["kl", "--help"], ["verify", "--help"],
                                      ["gen", "--help"]])
    def test_help_text_is_a_fresh_parsers(self, capsys, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            with pytest.raises(SystemExit):
                cli._build_parser.__wrapped__().parse_args(argv)
            assert capsys.readouterr().out == out
