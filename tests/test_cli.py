import json

import numpy as np
import pytest

from gausskl.cli import main
from gausskl import read_matrix_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


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

        # -0.0 off the diagonal is a literal zero; 1e-300 is not.
        for off, keys in ((-0.0, {"kl_nats", "bound_nats", "gap_nats"}), (1e-300, {"kl_nats"})):
            write_csv(x, [[2.0, off], [off, 3.0]])
            code, out, _ = run(capsys, "kl", "--x", str(x), "--y", str(y))
            assert code == 0
            assert set(json.loads(out)["results"]) == keys

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

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        write_csv(x, [[1, 0], [0, 1]])
        write_csv(y, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, _, err = run(capsys, "kl", "--x", str(x), "--y", str(y))
        assert code == 2
        assert "DimensionMismatch" in err


class TestGenCommand:
    def test_round_trip_divergence_exactly_zero(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code, _, _ = run(capsys, "gen", "--dim", "3", "--seed", "42",
                         "--cond", "10", "--out", str(out))
        assert code == 0
        code, out_kl, _ = run(capsys, "kl", "--x", str(out), "--y", str(out))
        assert code == 0
        assert json.loads(out_kl)["results"]["kl_nats"] == 0.0

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

    def test_p2_needs_dim_two(self, capsys):
        code, _, err = run(capsys, "verify", "--prop", "p2", "--trials", "5",
                           "--dim", "1", "--seed", "1")
        assert code == 2
        assert "ValueError" in err

    @pytest.mark.parametrize("flags", [("--dim", "1"), ("--dim", "2", "--blocks", "2,x"),
                                       ("--dim", "2", "--blocks", "0,2"),
                                       ("--dim", "2", "--blocks", "5")],
                             ids=["dim1", "bad-blocks", "zero-block", "one-block"])
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
