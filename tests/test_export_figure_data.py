"""scripts/export_figure_data.py: the figure files and their detected fractions."""

import pathlib
import runpy

from rotinv import SpinPair
from rotinv.geometry import be_region_fraction

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "export_figure_data.py"


def test_writes_all_figure_files(tmp_path, capsys):
    run = runpy.run_path(str(SCRIPT), run_name="export_figure_data")["run"]
    assert run([str(tmp_path), "--grid", "20"]) == 0
    capsys.readouterr()
    expected = ({f"geometry_4x{n2}.csv" for n2 in (4, 6, 8, 12)}
                | {f"{kind}_6x{n2}.csv" for kind in ("geometry", "sweep") for n2 in (6, 8, 14)})
    assert {p.name for p in tmp_path.iterdir()} == expected
    for n2 in (6, 8, 14):
        lines = (tmp_path / f"sweep_6x{n2}.csv").read_text().splitlines()
        assert lines[0] == f"# rotinv command=sweep n1=6 n2={n2} tol=1e-10 grid=20"
        assert lines[1] == "beta_K=2,beta_K=4,class"
        key, value = lines[-1].split("=")
        assert key == "# be_region_fraction"
        assert float(value) == be_region_fraction(SpinPair(6, n2), 20)
