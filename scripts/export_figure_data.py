#!/usr/bin/env python3
"""Export the state-space figure data to CSV.

Writes, under the output directory (default ./figure_data):
  * geometry_4x{4,6,8,12}.csv   - tetrahedron and PPT-set vertices plus the
                                  gamma plane, one file per second dimension
                                  (the four panels of the intersection figure)
  * geometry_6x{6,8,14}.csv     - invariant-polytope lines, Gamma and D~''
  * sweep_6x{6,8,14}.csv        - grid classification of the invariant set
                                  with the detected fraction appended

Plotting is left to external tools; every file is plain CSV with labelled
columns.  Usage: python scripts/export_figure_data.py [outdir] [--grid N].
"""

import argparse
import pathlib
import sys

from rotinv.cli import main as rotinv_main


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default="figure_data")
    parser.add_argument("--grid", type=int, default=200)
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    outputs = [(f"geometry_4x{n2}.csv", ["geometry", "--n1", "4", "--n2", str(n2)])
               for n2 in (4, 6, 8, 12)]
    for n2 in (6, 8, 14):
        outputs += [(f"geometry_6x{n2}.csv", ["geometry", "--n1", "6", "--n2", str(n2)]),
                    (f"sweep_6x{n2}.csv",
                     ["sweep", "--n1", "6", "--n2", str(n2), "--grid", str(args.grid)])]
    for name, command in outputs:
        out = outdir / name
        code = rotinv_main([*command, "--out", str(out)])
        if code:
            return code
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
