"""Command-line interface: outputs, determinism, and exit codes."""

import csv
import io
import json
import subprocess
import sys

import pytest

from rotinv import SpinPair
from rotinv.cli import main
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

    def test_both_bases_exit_2(self, capsys):
        code, _, err = run_main(
            ["classify", "--n1", "4", "--n2", "4", "--beta", "1,0,0,0", "--alpha", "1,0,0,0"],
            capsys,
        )
        assert code == 2


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

    @pytest.mark.parametrize("grid", [10, 37, 200])
    @pytest.mark.parametrize("dims", [(4, 4), (4, 5), (4, 20), (6, 6), (6, 8), (6, 14)])
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

    def test_unsupported_n1_exit_2(self, capsys):
        code, _, _ = run_main(["sweep", "--n1", "8", "--n2", "8"], capsys)
        assert code == 2

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


class TestVerify:
    def test_default_battery_passes(self, capsys):
        code, out, _ = run_main(["verify", "--n2-max", "12"], capsys)
        assert code == 0
        assert "verification PASSED" in out
        assert out.count("PASS") >= 9

    def test_perturbed_l_fails(self, capsys):
        code, out, _ = run_main(["verify", "--n2-max", "12", "--perturb-l"], capsys)
        assert code == 1
        assert "FAIL" in out and "l-orthogonality" in out

    def test_deep_battery(self, capsys):
        code, out, _ = run_main(
            ["verify", "--n2-max", "10", "--deep", "--seed", "7"], capsys
        )
        assert code == 0
        assert "dense-oracle-equivalence" in out

    def test_deterministic_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        args = ["verify", "--n2-max", "10", "--deep", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_usage_error_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "rotinv.cli", "classify", "--n1", "4"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
