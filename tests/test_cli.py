"""Command-line interface: outputs, determinism, and exit codes."""

import collections
import csv
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from rotinv import SpinPair, cli, geometry
from rotinv.cli import _build_parser, _config_comment, _config_from_args, main
from rotinv.geometry import sweep_rows


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_maximally_mixed_4x4(self, capsys):
        code, out, _ = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "KnownSeparable"
        assert data["is_ppt"] is True
        assert {"min_alpha", "min_theta1_alpha", "min_breuer_alpha"} <= set(data)

    def test_detected_segment_point(self, capsys):
        from rotinv.geometry import segment_state_4xn

        coords = ",".join(repr(c) for c in segment_state_4xn(6, 1.0).coords)
        code, out, _ = run_main(
            ["classify", "--n1", "4", "--n2", "6", "--beta", coords], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "PptBoundEntangledDetected"

    def test_alpha_input(self, capsys):
        code, out, _ = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--alpha", "0.25,0.4330127018922193,0.5590169943749475,0.6614378277661477"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "KnownSeparable"

    def test_odd_n1_note(self, capsys):
        code, out, _ = run_main(
            ["classify", "--n1", "5", "--n2", "5", "--beta", "1,0,0,0,0"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert "breuer_detected" not in data
        assert "inapplicable" in data["note"]

    def test_malformed_coordinates_exit_2(self, capsys):
        code, _, err = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,oops,0"], capsys
        )
        assert code == 2 and "malformed" in err

    def test_wrong_length_exit_2(self, capsys):
        code, _, err = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["1,nan,0,0", "inf,0,0,0", "1,0,-inf,0", "-inf,0,0,0"])
    @pytest.mark.parametrize("basis", ["--alpha", "--beta"])
    def test_non_finite_coordinates_exit_2(self, basis, text, capsys):
        code, out, err = run_main(["classify", "--n1", "4", "--n2", "4", basis, text], capsys)
        assert code == 2 and out == ""
        assert err == f"error: coordinates must be finite, got {text!r}\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0"],
        ["sweep", "--n1", "6", "--n2", "8"],
    ])
    def test_non_finite_tolerance_exit_2(self, command, tol, capsys):
        code, out, err = run_main(command + ["--tol", tol], capsys)
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be finite, got {float(tol)}\n"

    @pytest.mark.parametrize("tol", ["0", "-1e-3"])
    def test_non_positive_tolerance_exit_2(self, tol, capsys):
        code, out, err = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0", "--tol", tol], capsys)
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be positive, got {float(tol)}\n"

    @pytest.mark.parametrize("argv", [
        ["--n1", "4", "--n2", "4", "--alpha", "-0.1,0.5,0.5,0.7997503766195847"],
        ["--n1", "5", "--n2", "5", "--alpha", "-1,0,0,0,2"],
    ])
    def test_coordinates_starting_with_minus(self, argv, capsys):
        code, out, err = run_main(["classify"] + argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "NotAState"
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert run_main(["classify"] + joined, capsys) == (code, out, err)

    @pytest.mark.parametrize("basis, text, trace", [
        ("alpha", "0.25,0.25,0.25,0.25", "0.49060575393600714"),
        ("beta", "2,0,0.2,0", "2.0"),
        ("alpha", "0.25,0.25,0.25", "0.4269234789383892"),
        ("beta", "2,0,0.2,0,0", "2.0"),
        ("beta", "2,0", "2.0"),
    ])
    def test_unnormalized_input_names_trace_condition(self, basis, text, trace, capsys):
        # on the system n1 x (n1 + 2), n1 the number of coordinates: odd n1 and
        # n1 = 2 reject off-trace input as even n1 >= 4 does
        n1 = text.count(",") + 1
        code, out, err = run_main(
            ["classify", f"--{basis}={text}", "--n1", str(n1), "--n2", str(n1 + 2)], capsys)
        assert code == 2 and out == ""
        assert f"the {basis} coordinates given have trace {trace}" in err
        assert "sum_J sqrt((2J+1)/(n1 n2)) alpha_J = 1" in err
        assert "breuer_map" not in err

    def test_both_bases_exit_2(self, capsys):
        code, _, err = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0", "--alpha", "1,0,0,0"],
            capsys,
        )
        assert code == 2

    @pytest.mark.filterwarnings("error")
    def test_huge_coordinate_prints_no_warning(self, capsys):
        # the Breuer image of beta_2 = 1e308 overflows to inf without a warning
        code, out, err = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,1e308,0"], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "84d46b4668bbfd8661ed9977812ef46d81538274b9c86a05428e2ab2a4fc9b66")


class TestGeometry:
    def test_4xn_rows(self, capsys):
        code, out, _ = run_main(["geometry", "--n1", "4", "--n2", "12"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# rotinv")
        header = lines[1].split(",")
        assert header[:4] == ["kind", "label", "const_dec", "const_exact"]
        assert "beta_K=2_dec" in header
        labels = [line.split(",")[1] for line in lines[2:]]
        for expected in ["A", "B", "C", "D", "A'", "E", "F", "G", "G'", "D''", "Gamma"]:
            assert expected in labels

    def test_6xn_rows(self, capsys):
        code, out, _ = run_main(
            ["geometry", "--n1", "6", "--n2", "8", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        labels = [p["label"] for p in data["points"]]
        assert labels == ["D~''"]
        plane_labels = [h["label"] for h in data["hyperplanes"]]
        assert plane_labels[0] == "Gamma"
        assert sum(lab.startswith("alpha[J=") for lab in plane_labels) == 6

    def test_invalid_system_exit_2(self, capsys):
        code, _, err = run_main(["geometry", "--n1", "4", "--n2", "3"], capsys)
        assert code == 2
        code, _, err = run_main(["geometry", "--n1", "5", "--n2", "7"], capsys)
        assert code == 2

    # sha256 of the full output; every float is math.sqrt of an int ratio,
    # so the bytes do not depend on the platform
    @pytest.mark.parametrize("n1, n2, fmt, digest", [
        (4, 4, "csv", "fa575aa9eb5cca5ac59d508fb854949b2a324a95b959a46f2f7bd9e607504d22"),
        (4, 4, "json", "51855db687a9b5867fe010d6674935d16df5b24f3cd61efce75f6699272d14e6"),
        (4, 12, "csv", "78e60c98eb445b5d8669993d9de72548d925356ea33c8d7f8a64bae1fd9be539"),
        (4, 12, "json", "be0b05142e01dc698cdd0bfc2062aef68c5574bcf6ebfc61ba9da70ba9adf922"),
        (6, 8, "csv", "8816e96593ee8fd5fe5d4f04395df30eef6584534b667c0c3a53746de3e126a7"),
        (6, 8, "json", "325e3db03179f7817e5b0415ea1d026f0e8be43a3ff3c96fcc3b05572d0c372e"),
        (8, 12, "csv", "1f2f24f3013f5d43db3819bf8889a27490fbe13be9d56ac992118578249698e9"),
        (8, 12, "json", "a9307cada7c7e668f8ac6d02f1745a2dffbfb9a4dd02d5e1989349e3d098d9f3"),
        (10, 18, "csv", "290bb4d05915a4461bea6a2891f4812d3b082b28813ec4a66b67a7f14a8b05c3"),
        (10, 18, "json", "6b0f206d00c40d3d3bf921bcadedd40947cca762ace6e6ae486d16c69739567b"),
        (12, 20, "csv", "1ef30ddc1c9c5332b0853ec8ec8f89d5ed46212b8dd13597efb1e7e1dce1fa7f"),
        (12, 20, "json", "b26f3db6f62a52cb0046d92fe1d4e5276b18c48479197fbdd97fb881131b9d29"),
    ])
    def test_golden_bytes(self, n1, n2, fmt, digest, capsys):
        code, out, _ = run_main(
            ["geometry", "--n1", str(n1), "--n2", str(n2), "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_exact_columns_contain_radicals(self, capsys):
        code, out, _ = run_main(["geometry", "--n1", "4", "--n2", "4"], capsys)
        assert code == 0
        d_row = next(line for line in out.splitlines() if line.startswith("point,D,"))
        assert "sqrt(" in d_row


class TestSweep:
    def test_csv_structure_and_summary(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--n1", "6", "--n2", "6", "--grid", "24"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "beta_K=2,beta_K=4,class"
        assert lines[-1].startswith("# be_region_fraction=")
        classes = {line.split(",")[-1] for line in lines[2:-1]}
        assert classes <= {"PptBoundEntangledDetected", "PptUndetermined", "KnownSeparable"}
        assert "PptBoundEntangledDetected" in classes

    # six systems at three grids, then the benchmark's grids as two cases:
    # 40000 for 4 x N and 260 for 6 x N
    @pytest.mark.parametrize("dims, grid", [
        *(pytest.param(dims, grid, id=f"dims{i}-{grid}")
          for i, dims in enumerate([(4, 4), (4, 5), (4, 20), (6, 6), (6, 8), (6, 14)])
          for grid in (10, 37, 200)),
        pytest.param((4, 9), 40000, id="4x9-40000"),
        pytest.param((6, 10), 260, id="6x10-260"),
    ])
    def test_csv_matches_csv_writer_over_sweep_rows(self, dims, grid, tmp_path):
        out = tmp_path / "sweep.csv"
        n1, n2 = dims
        assert main(["sweep", "--n1", str(n1), "--n2", str(n2), "--grid", str(grid),
                     "--out", str(out)]) == 0
        header, rows, fraction = sweep_rows(SpinPair(n1, n2), grid)
        for row in rows:
            assert [type(v) for v in row] == [float] * (len(header) - 1) + [str]
        buf = io.StringIO()
        buf.write(f"# rotinv command=sweep n1={n1} n2={n2} tol=1e-10 grid={grid}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) for v in row[:-1]] + [row[-1]] for row in rows)
        buf.write(f"# be_region_fraction={fraction!r}\n")
        assert out.read_text() == buf.getvalue()

    # hand-built columns: grid indices per axis and class codes, over the last
    # len(index) of two axes
    @pytest.mark.parametrize("index, codes", [
        pytest.param(([0, 0, 1, 1, 2], [1, 2, 3, 4, 4]), [0, 0, 0, 0, 1],
                     id="next-row-starts-one-past-the-last"),
        pytest.param(([0, 0, 0, 0, 1], [0, 1, 2, 3, 0]), [0, 0, 2, 2, 2],
                     id="class-change-mid-row"),
        pytest.param(([0, 1, 2, 4],), [1, 0, 0, 0], id="class-change-and-gap-1d"),
        pytest.param(([], []), [], id="empty"),
    ])
    def test_runs_match_csv_writer_on_hand_built_columns(self, index, codes, monkeypatch,
                                                         tmp_path):
        axes = [np.array([-0.0, 0.1, 1 / 3]),
                np.array([1e-17, -2.5, 0.2, 7.0, 1 / 7])][-len(index):]
        header = tuple(f"beta_K={2 * (k + 1)}" for k in range(len(axes))) + ("class",)
        columns = (header, axes, tuple(np.array(i, dtype=np.intp) for i in index),
                   np.array(codes, dtype=np.int64), 0.25)
        monkeypatch.setattr(geometry, "sweep_columns", lambda *args: columns)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n1", "6", "--n2", "8", "--grid", "10", "--out", str(out)]) == 0
        buf = io.StringIO()
        buf.write("# rotinv command=sweep n1=6 n2=8 tol=1e-10 grid=10\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([*(repr(float(ax[i[p]])) for ax, i in zip(axes, index)),
                          geometry.SWEEP_CLASSES[c]] for p, c in enumerate(codes))
        buf.write("# be_region_fraction=0.25\n")
        assert out.read_text() == buf.getvalue()

    # the coordinate bytes are not pinned: the bounding box comes from LAPACK
    # solves, whose last bits can differ by platform
    @pytest.mark.parametrize("n1, n2, grid, counts, fraction", [
        (4, 9, 200, {"KnownSeparable": 188, "PptBoundEntangledDetected": 12}, "0.06"),
        (4, 17, 40000, {"KnownSeparable": 39285, "PptBoundEntangledDetected": 715},
         "0.017875"),
        (6, 8, 37, {"PptBoundEntangledDetected": 34, "PptUndetermined": 625},
         "0.051593323216995446"),
        (6, 14, 260, {"PptBoundEntangledDetected": 5, "PptUndetermined": 34900},
         "0.00014324595330181923"),
    ])
    def test_pinned_class_counts(self, n1, n2, grid, counts, fraction, capsys):
        code, out, _ = run_main(
            ["sweep", "--n1", str(n1), "--n2", str(n2), "--grid", str(grid)], capsys)
        assert code == 0
        lines = out.splitlines()
        rows = lines[2:-1]
        assert len(rows) == sum(counts.values())
        assert dict(collections.Counter(r.rsplit(",", 1)[1] for r in rows)) == counts
        assert lines[-1] == f"# be_region_fraction={fraction}"

    def test_unsupported_n1_exit_2(self, capsys):
        code, _, _ = run_main(["sweep", "--n1", "8", "--n2", "8"], capsys)
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_coarse_grid_exit_2(self, fmt, capsys):
        code, out, err = run_main(
            ["sweep", "--n1", "6", "--n2", "8", "--grid", "5", "--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err == "error: grid must be >= 10, got 5\n"

    def test_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n1", "6", "--n2", "8", "--grid", "20"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--n1", "6", "--n2", "8", "--grid", "15", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"config", "header", "rows", "be_region_fraction"}
        assert 0 < data["be_region_fraction"] < 1


VERIFY_CHECKS = [
    "orthogonality-sum-delta",
    "appendix-sum-minus-1-over-n2",
    "l-orthogonality",
    "explicit-l-4xn",
    "pipeline-named-points",
    "segment-threshold",
    "gamma-plane-4x4",
    "d-tilde-on-gamma",
    "be-existence",
]


def check_lines(out):
    """The check lines of a verify report, between the config echo and the verdict."""
    lines = out.splitlines()
    assert lines[0].startswith("# rotinv command=verify ")
    return lines[1:-1], lines[-1]


class TestVerify:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run_main(["verify", "--n2-max", "12"], capsys)
        assert code == 0
        checks, verdict = check_lines(out)
        assert [line.split()[0] for line in checks] == VERIFY_CHECKS
        assert all(line.endswith("  PASS") for line in checks)
        assert verdict == "verification PASSED"

    def test_perturbed_l_fails(self, capsys):
        code, out, _ = run_main(["verify", "--n2-max", "12", "--perturb-l"], capsys)
        assert code == 1
        checks, verdict = check_lines(out)
        failed = [line.split()[0] for line in checks if line.endswith("  FAIL")]
        assert failed == ["l-orthogonality"]
        assert len(checks) == len(VERIFY_CHECKS)
        assert verdict == "verification FAILED"

    def test_deep_battery(self, capsys):
        code, out, _ = run_main(
            ["verify", "--n2-max", "10", "--deep", "--seed", "7"], capsys
        )
        assert code == 0
        checks, verdict = check_lines(out)
        assert [line.split()[0] for line in checks] == VERIFY_CHECKS + ["dense-oracle-equivalence"]
        assert all(line.endswith("  PASS") for line in checks)
        assert verdict == "verification PASSED"

    @pytest.mark.parametrize("n2_max", ["-5", "2", "9"])
    def test_n2_max_below_largest_swept_n1_exit_2(self, n2_max, capsys):
        code, out, err = run_main(["verify", "--n2-max", n2_max], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: n2-max must be >= 10, the largest n1 that verify "
                       f"sweeps, got {n2_max}\n")

    @pytest.mark.parametrize("argv", [["verify", "--seed", "-1"],
                                      ["verify", "--deep", "--seed", "-1"]])
    def test_negative_seed_exit_2_before_any_check(self, argv, capsys, monkeypatch):
        def run_battery(cfg):
            raise AssertionError("the battery ran")
        monkeypatch.setattr(cli, "cmd_verify", run_battery)
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    # sha256 of the full stdout; the residuals come from numpy's LAPACK and
    # BLAS, so the pin holds for one numpy build (numpy 2.4, OpenBLAS)
    @pytest.mark.parametrize("seed, digest", [
        ("7", "c8389c1e48a06179761d359c30690ec53c772ab61b199128fc6b21965fa6ca0b"),
        ("12345", "1fa331b7888d26db2328474ec716b226ba51c10f6516a905bbb5ee0b6361e9fe"),
    ])
    def test_deep_golden_bytes(self, seed, digest, capsys):
        code, out, _ = run_main(["verify", "--deep", "--seed", seed], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        args = ["verify", "--n2-max", "10", "--deep", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConfig:
    @pytest.mark.parametrize("argv, comment", [
        (["verify"], "command=verify tol=1e-10 seed=12345 deep=False n2_max=20"),
        (["sweep", "--n1", "6", "--n2", "8"], "command=sweep n1=6 n2=8 tol=1e-10 grid=200"),
        (["geometry", "--n1", "4", "--n2", "4"], "command=geometry n1=4 n2=4 tol=1e-10"),
    ])
    def test_default_config_echo(self, argv, comment):
        cfg = _config_from_args(_build_parser().parse_args(argv))
        assert _config_comment(cfg) == f"# rotinv {comment}\n"
        assert (cfg.fmt, cfg.out, cfg.perturb_l) == ("csv", None, False)


class TestUnwritableOut:
    """An --out that cannot be written is an input error (exit 2), not a
    verification failure (exit 1) or a traceback."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0"],
        ["geometry", "--n1", "4", "--n2", "5"],
        ["sweep", "--n1", "4", "--n2", "5", "--grid", "10"],
        ["verify", "--n2-max", "10"],
    ])
    def test_missing_directory_and_directory_exit_2(self, argv, tmp_path, capsys):
        for path, reason in ((tmp_path / "missing" / "out.txt", "No such file or directory"),
                             (tmp_path, "Is a directory")):
            code, out, err = run_main(argv + ["--out", str(path)], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and reason in err and str(path) in err
        assert list(tmp_path.iterdir()) == []


class TestOutOfMemory:
    """A command that cannot allocate its arrays is an input error: exit 2, not a failed check."""

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array", "error: out of memory: Unable to allocate"),
        ("", "error: out of memory\n"),
    ])
    def test_sweep_memory_error_exits_2(self, message, shown, monkeypatch, capsys):
        def too_large(*args):
            raise MemoryError(message)
        monkeypatch.setattr(geometry, "sweep_columns", too_large)
        code, out, err = run_main(["sweep", "--n1", "6", "--n2", "6", "--grid", "1000000"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(shown) and err.count("\n") == 1


class TestSweepBudget:
    """A sweep of more than 4,000,000 grid points (grid ** d) exits 2 before it allocates:
    np.linspace is never reached."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_linspace(self, monkeypatch):
        def reached(*args, **kwargs):
            raise self.Reached
        monkeypatch.setattr(np, "linspace", reached)

    @pytest.mark.parametrize("n1, grid, points", [(4, 4_000_001, 4_000_001),
                                                  (4, 100_000_000, 100_000_000),
                                                  (6, 2001, 4_004_001),
                                                  (6, 1_000_000, 10 ** 12)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_above_the_budget_exits_2(self, n1, grid, points, fmt, no_linspace, capsys):
        code, out, err = run_main(["sweep", "--n1", str(n1), "--n2", "6", "--grid", str(grid),
                                   "--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: a sweep of SpinPair(n1={n1}, n2=6) at grid {grid} has {points} "
                       "points, above the budget of 4000000\n")

    @pytest.mark.parametrize("n1, grid", [(4, 4_000_000), (6, 2000)])
    def test_grid_at_the_budget_reaches_the_grid(self, n1, grid, no_linspace):
        with pytest.raises(self.Reached):
            geometry.sweep_columns(SpinPair(n1, 6), grid, 1e-10)


class TestTolOption:
    """--tol belongs to classify and sweep: geometry is exact, and verify runs
    every check at the library default."""

    @pytest.mark.parametrize("argv", [
        ["geometry", "--n1", "6", "--n2", "8", "--tol", "1e-8"],
        ["verify", "--tol", "1e-8"],
    ])
    def test_tol_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tol 1e-8" in captured.err

    @pytest.mark.parametrize("argv", [
        ["geometry", "--n1", "6", "--n2", "8", "--tol", "1e-8"],
        ["verify", "--tol", "1e-8"],
    ])
    def test_usage_error_names_the_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: rotinv {argv[0]} ")
        assert f"rotinv {argv[0]}: error: unrecognized arguments: --tol 1e-8" in err

    @pytest.mark.parametrize("command, listed", [
        ("classify", True), ("sweep", True), ("geometry", False), ("verify", False)])
    def test_help_lists_tol(self, command, listed, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert ("--tol" in capsys.readouterr().out) is listed


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "rotinv.cli", "classify",
             "--n1", "4", "--n2", "4", "--beta", "1,0,0,0"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdict"] == "KnownSeparable"

    def test_import_does_not_load_scipy(self):
        # numpy is the only runtime dependency
        code = "import rotinv, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_verify_deep_loads_numpy_ma_only_if_numpy_does(self):
        # np.unique imports numpy.ma (about 8 ms); the oracle takes its charges as int ranges
        code = ("import contextlib, io, sys\n"
                "import numpy\n"
                "bare = 'numpy.ma' in sys.modules\n"
                "from rotinv.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['verify', '--deep', '--seed', '7']) == 0\n"
                "assert bare or 'numpy.ma' not in sys.modules\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_reused_parser_prints_what_a_fresh_process_prints(self, monkeypatch, capsys):
        """The parser is built once per process; usage errors leave it as a fresh one."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text at this width
        runs = [(["classify", "--n1", "4"], 2), (["verify", "--tol", "1e-8"], 2),
                (["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0"], 0)]
        for argv, code in runs:
            try:
                got = main(argv)
            except SystemExit as exc:
                got = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "rotinv.cli", *argv],
                                   capture_output=True, text=True)
            assert got == fresh.returncode == code, argv
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "rotinv.cli", "classify", "--n1", "4"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
