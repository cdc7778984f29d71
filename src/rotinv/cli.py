"""Command-line interface: classify states, export geometry, sweep regions, verify.

Commands
--------
classify   classify one invariant state given by alpha or beta coordinates
geometry   emit the labelled points and hyperplanes for a system (CSV/JSON)
sweep      grid-sweep the theta_1-invariant polytope and report the
           Breuer-detected fraction (CSV/JSON)
verify     run the built-in identity and cross-validation battery

Each command is one entry in ``_COMMANDS`` (the ``cmd_*`` function that
``main`` runs) and one in ``_ECHOED`` (the fields its header echoes after
its name), plus its block in the parser.

Exit codes: 0 success, 1 verification failure, 2 usage, input, output-file or
out-of-memory error.
Identical configurations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import checks, geometry, maps, states
from .states import AlphaVector, BetaVector, SpinPair
from .wigner import _triangle_ok

__all__ = ["main", "RunConfig"]

_SWEPT_N1 = (4, 6, 8, 10)  # n1 of verify's system sweeps, each up to n2 = --n2-max

# the fields each command's header echoes after its name; geometry and verify
# echo a tol they do not read, which their pinned bytes hold
_ECHOED = {
    "classify": ("n1", "n2", "tol"),
    "geometry": ("n1", "n2", "tol"),
    "sweep": ("n1", "n2", "tol", "grid"),
    "verify": ("tol", "seed", "deep", "n2_max"),
}


@dataclass(frozen=True)
class RunConfig:
    """One command's options; the field defaults are the CLI defaults."""

    command: str
    n1: int = 0
    n2: int = 0
    basis: str | None = None
    coords: tuple[float, ...] | None = None
    tol: float = states.DEFAULT_TOL
    grid: int = 200
    seed: int = 12345
    fmt: str = "csv"
    out: str | None = None
    deep: bool = False
    n2_max: int = 20
    perturb_l: bool = False

    def __post_init__(self):
        if self.command not in _ECHOED:
            raise ValueError(f"unknown command {self.command!r}")
        if not math.isfinite(self.tol):
            raise ValueError(f"tolerance must be finite, got {self.tol}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.grid < 10:
            raise ValueError(f"grid must be >= 10, got {self.grid}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n2_max < max(_SWEPT_N1):
            raise ValueError(f"n2-max must be >= {max(_SWEPT_N1)}, the largest n1 "
                             f"that verify sweeps, got {self.n2_max}")

    def echo(self) -> dict:
        return {"command": self.command, **{k: getattr(self, k) for k in _ECHOED[self.command]}}


def _parse_coords(text: str) -> tuple[float, ...]:
    try:
        coords = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed coordinate list {text!r}") from exc
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"coordinates must be finite, got {text!r}")
    return coords


def _write(out_path: str | None, text: str):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _config_comment(cfg: RunConfig) -> str:
    parts = [f"{k}={v}" for k, v in cfg.echo().items()]
    return "# rotinv " + " ".join(parts) + "\n"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(cfg: RunConfig) -> int:
    system = SpinPair(cfg.n1, cfg.n2)
    if cfg.basis == "alpha":
        beta = states.alpha_to_beta(AlphaVector(system, cfg.coords))
    else:
        beta = BetaVector(system, cfg.coords)
    # input off the trace condition is bad input on every system
    trace = beta.coords[0]  # = sum_J sqrt((2J+1)/(n1 n2)) alpha_J
    if not states._unit_trace(trace):
        raise ValueError(f"the {cfg.basis} coordinates given have trace {trace!r}, but a "
                         "state needs sum_J sqrt((2J+1)/(n1 n2)) alpha_J = 1")
    with np.errstate(over="ignore"):  # a huge coordinate's Breuer image overflows to inf
        result = maps.classify(beta, cfg.tol)
    report = {"config": cfg.echo(), "input": beta.to_json_dict()}
    report.update(result.to_json_dict())
    _write(cfg.out, json.dumps(report, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _geometry_data(system: SpinPair) -> tuple[list, list]:
    points: list[geometry.NamedPoint] = []
    planes: list[geometry.Hyperplane] = [geometry.gamma_hyperplane(system)]
    if system.n1 == 4:
        points.extend(geometry.named_points_4xn(system.n2).values())
    else:
        points.append(geometry.d_tilde_point(system))
        planes.extend(geometry.theta1_polytope(system))
    return points, planes


def _geometry_csv(cfg: RunConfig, points, planes) -> str:
    header = ["kind", "label", "const_dec", "const_exact"]
    for k in range(1, cfg.n1):
        header += [f"beta_K={k}_dec", f"beta_K={k}_exact"]
    rows = [header]
    for p in points:
        row = ["point", p.label]
        for k in range(cfg.n1):
            row += [repr(p.beta.coords[k]), str(p.exact[k])]
        rows.append(row)
    for h in planes:
        row = ["hyperplane", h.label, repr(h.constant), str(h.exact_constant)]
        for coeff, exact in zip(h.coeffs, h.exact_coeffs):  # odd K columns stay empty
            row += ["", "", repr(coeff), str(exact)]
        rows.append(row + ["", ""])
    # no field holds a comma, quote or newline: labels, repr floats and exact strings
    return _config_comment(cfg) + "".join(",".join(row) + "\n" for row in rows)


def _geometry_json(cfg: RunConfig, points, planes) -> str:
    data = {
        "config": cfg.echo(),
        "points": [
            {
                "label": p.label,
                "beta": p.beta.to_json_dict(),
                "exact": [str(e) for e in p.exact],
            }
            for p in points
        ],
        "hyperplanes": [
            {
                "label": h.label,
                "constant": h.constant,
                "constant_exact": str(h.exact_constant),
                "coeffs": {f"K={2 * (i + 1)}": c for i, c in enumerate(h.coeffs)},
                "coeffs_exact": [str(c) for c in h.exact_coeffs],
            }
            for h in planes
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def cmd_geometry(cfg: RunConfig) -> int:
    system = SpinPair(cfg.n1, cfg.n2)
    if not system.breuer_applicable:
        raise ValueError(f"geometry needs an even n1 >= 4, got {system.n1}")
    writer = _geometry_json if cfg.fmt == "json" else _geometry_csv
    _write(cfg.out, writer(cfg, *_geometry_data(system)))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig) -> int:
    system = SpinPair(cfg.n1, cfg.n2)
    if cfg.fmt == "json":
        header, rows, fraction = geometry.sweep_rows(system, cfg.grid, cfg.tol)
        data = {"config": cfg.echo(), "header": header, "rows": rows,
                "be_region_fraction": fraction}  # json writes a tuple as a list
        _write(cfg.out, json.dumps(data, indent=2) + "\n")
        return 0
    header, axes, index, codes, fraction = geometry.sweep_columns(system, cfg.grid, cfg.tol)
    texts = [list(map(repr, ax.tolist())) for ax in axes]  # repr once per axis value
    # a run: consecutive inside points of one class that share every coordinate but the
    # last, whose grid index steps by one; a run's rows are one join of that axis's texts
    *lead, last = index
    new_run = (np.diff(codes, prepend=-1) != 0) | (np.diff(last, prepend=-1) != 1)
    for i in lead:
        new_run |= np.diff(i, prepend=-1) != 0
    starts = np.flatnonzero(new_run).tolist()
    body = [_config_comment(cfg) + ",".join(header) + "\n"]
    for start, stop in zip(starts, starts[1:] + [len(last)]):
        prefix = "".join(text[i[start]] + "," for text, i in zip(texts, lead))
        end, j = f",{geometry.SWEEP_CLASSES[codes[start]]}\n", last[start]
        body.append(prefix + (end + prefix).join(texts[-1][j:j + stop - start]) + end)
    _write(cfg.out, "".join(body) + f"# be_region_fraction={fraction!r}\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _orthogonality_cases() -> tuple[tuple[Fraction, ...], ...]:
    """The first two admissible J, J' for each a, b, c, d in {0, 1/2, ..., 2}, as Fractions."""
    cases = []
    for ta, tb, tc, td in itertools.product(range(5), repeat=4):  # doubled spins
        valid = [tj for tj in range(9) if _triangle_ok(ta, tb, tj) and _triangle_ok(tc, td, tj)]
        cases += [tuple(Fraction(t, 2) for t in (ta, tb, tc, td, tj, tjp))
                  for tj, tjp in itertools.product(valid[:2], repeat=2)]
    return tuple(cases)


def _l_matrices(perturb: bool):
    for n1 in range(2, 13, 2):
        for n2 in range(n1, 25):
            l = states.build_l_matrix(SpinPair(n1, n2)).values
            if perturb and (n1, n2) == (4, 4):
                l = l.copy()
                l[1, 1] += 1e-6
            yield l


def _seeded_states(seed: int):
    rng = np.random.default_rng(seed)
    for dims in ((4, 4), (4, 6), (6, 6), (6, 8)):
        system = SpinPair(*dims)
        for _ in range(25):
            raw = rng.random(system.n1)
            yield AlphaVector(system, raw / (system.norm_weights() @ raw))


def cmd_verify(cfg: RunConfig) -> int:
    systems = [SpinPair(n1, n2) for n1 in _SWEPT_N1 for n2 in range(n1, cfg.n2_max + 1)]
    battery = [
        ("orthogonality-sum-delta", checks.orthogonality_sums, _orthogonality_cases(), 1e-15),
        ("appendix-sum-minus-1-over-n2", checks.appendix_sum, systems, 1e-12),
        ("l-orthogonality", checks.l_orthogonality, _l_matrices(cfg.perturb_l), 1e-12),
        ("explicit-l-4xn", checks.explicit_l_4xn, range(4, 21), 1e-12),
        ("pipeline-named-points", checks.named_points, (4, 6, 8, 12), 1e-10),
        ("segment-threshold", checks.segment_threshold, range(4, 21), 1e-9),
        ("gamma-plane-4x4", checks.gamma_plane_4x4, ("D", "D'", "F", "F'"), 1e-12),
        ("d-tilde-on-gamma", checks.d_tilde_on_gamma, systems, 1e-12),
        ("be-existence", checks.be_existence, systems, 0.5),
    ]
    if cfg.deep:
        battery.append(("dense-oracle-equivalence", checks.dense_equivalence,
                        _seeded_states(cfg.seed), 1e-10))

    lines = [_config_comment(cfg).rstrip("\n")]
    all_ok = True
    for name, check, cases, bound in battery:
        residual = check(cases)
        ok = residual <= bound
        all_ok &= ok
        lines.append(f"{name:<32} max_residual {residual:11.3e}  bound {bound:8.0e}  "
                     f"{'PASS' if ok else 'FAIL'}")
    lines.append("verification " + ("PASSED" if all_ok else "FAILED"))
    _write(cfg.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


_COMMANDS = {"classify": cmd_classify, "geometry": cmd_geometry,
             "sweep": cmd_sweep, "verify": cmd_verify}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports arguments it does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The rotinv parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="rotinv",
        description="Rotationally invariant bipartite states: classification, "
                    "geometry and Breuer-map bound-entanglement detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_command(name, summary, with_system=True):
        # an option left out stays out of the namespace, so RunConfig supplies its default
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if with_system:
            p.add_argument("--n1", type=int, required=True, help="first subsystem dimension")
            p.add_argument("--n2", type=int, required=True, help="second subsystem dimension (>= n1)")
        if name in ("classify", "sweep"):  # geometry is exact; verify runs at the library default
            p.add_argument("--tol", type=float, help="numerical tolerance")
        p.add_argument("--out", type=str, help="output file (default stdout)")
        return p

    p = add_command("classify", "classify one invariant state")
    p.add_argument("--alpha", type=str, help="comma-separated projector coordinates")
    p.add_argument("--beta", type=str, help="comma-separated tensor coordinates")

    p = add_command("geometry", "emit labelled points and hyperplanes")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    p = add_command("sweep", "grid-sweep the theta_1-invariant polytope")
    p.add_argument("--grid", type=int, help="grid points per axis (>= 10)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    p = add_command("verify", "run the identity and cross-validation battery", with_system=False)
    p.add_argument("--deep", action="store_true",
                   help="add randomized dense-oracle equivalence checks")
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.add_argument("--n2-max", type=int,
                   help=f"largest n2 in system sweeps (>= {max(_SWEPT_N1)})")
    p.add_argument("--perturb-l", action="store_true", help=argparse.SUPPRESS)
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Join "--alpha -0.1,..." into "--alpha=-0.1,..." (also --beta, --tol):
    argparse takes a separate value such as "-0.1,0.3" or "-inf" for an option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in ("--alpha", "--beta", "--tol")
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    if args.command == "classify":
        alpha, beta = options.pop("alpha", None), options.pop("beta", None)
        if (alpha is None) == (beta is None):
            raise ValueError("classify needs exactly one of --alpha or --beta")
        options["basis"] = "alpha" if alpha is not None else "beta"
        options["coords"] = _parse_coords(alpha if alpha is not None else beta)
    return RunConfig(**options)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:  # bad input, or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a sweep --grid too large to allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
