"""Command-line interface: classify states, export geometry, sweep regions, verify.

Commands
--------
classify   classify one invariant state given by alpha or beta coordinates
geometry   emit the labelled points and hyperplanes for a system (CSV/JSON)
sweep      grid-sweep the theta_1-invariant polytope and report the
           Breuer-detected fraction (CSV/JSON)
verify     run the built-in identity and cross-validation battery

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Identical configurations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import dense, geometry, maps, states, wigner
from .radical import ExactRadical
from .states import AlphaVector, BetaVector, SpinPair

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    n1: int
    n2: int
    basis: str | None = None
    coords: tuple[float, ...] | None = None
    tol: float = 1e-10
    grid: int = 200
    seed: int = 12345
    fmt: str = "csv"
    out: str | None = None
    deep: bool = False
    n2_max: int = 20
    perturb_l: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.grid < 10:
            raise ValueError(f"grid must be >= 10, got {self.grid}")
        if self.basis is not None and self.basis not in ("alpha", "beta"):
            raise ValueError(f"basis must be alpha or beta, got {self.basis}")

    def echo(self) -> dict:
        out: dict = {"command": self.command}
        if self.command != "verify":
            out.update({"n1": self.n1, "n2": self.n2})
        out["tol"] = self.tol
        if self.command == "sweep":
            out["grid"] = self.grid
        if self.command == "verify":
            out.update({"seed": self.seed, "deep": self.deep, "n2_max": self.n2_max})
        return out


def _parse_coords(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed coordinate list {text!r}") from exc


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
    if cfg.coords is None:
        raise ValueError("classify needs --alpha or --beta coordinates")
    if cfg.basis == "alpha":
        beta = states.alpha_to_beta(AlphaVector(system, cfg.coords))
    else:
        beta = BetaVector(system, cfg.coords)
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
    planes: list[geometry.Hyperplane] = []
    if system.n1 == 4:
        named = geometry.named_points_4xn(system.n2)
        order = ["A", "B", "C", "D", "A'", "B'", "C'", "D'",
                 "E", "F", "G", "E'", "F'", "G'", "D''"]
        points.extend(named[label] for label in order)
        planes.append(geometry.gamma_hyperplane(system))
    else:
        points.append(geometry.d_tilde_point(system))
        planes.append(geometry.gamma_hyperplane(system))
        planes.extend(geometry.theta1_polytope(system))
    return points, planes


def _geometry_csv(cfg: RunConfig, points, planes) -> str:
    n1 = cfg.n1
    buf = io.StringIO()
    buf.write(_config_comment(cfg))
    writer = csv.writer(buf, lineterminator="\n")
    header = ["kind", "label", "const_dec", "const_exact"]
    for k in range(1, n1):
        header += [f"beta_K={k}_dec", f"beta_K={k}_exact"]
    writer.writerow(header)
    for p in points:
        row = ["point", p.label]
        for k in range(n1):
            row += [repr(p.beta.coords[k]), str(p.exact[k])]
        writer.writerow(row)
    for h in planes:
        row = ["hyperplane", h.label, repr(h.constant),
               str(h.exact_constant) if h.exact_constant is not None else ""]
        coeffs = dict(zip(range(2, n1, 2), h.coeffs))
        exacts = dict(zip(range(2, n1, 2), h.exact_coeffs or ()))
        for k in range(1, n1):
            if k in coeffs:
                row += [repr(coeffs[k]), str(exacts[k]) if k in exacts else ""]
            else:
                row += ["", ""]
        writer.writerow(row)
    return buf.getvalue()


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
                "constant_exact": str(h.exact_constant) if h.exact_constant else None,
                "coeffs": {f"K={2 * (i + 1)}": c for i, c in enumerate(h.coeffs)},
                "coeffs_exact": [str(c) for c in h.exact_coeffs] if h.exact_coeffs else None,
            }
            for h in planes
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def cmd_geometry(cfg: RunConfig) -> int:
    system = SpinPair(cfg.n1, cfg.n2)
    if system.n1 % 2 or system.n1 < 4:
        raise ValueError(f"geometry needs an even n1 >= 4, got {system.n1}")
    points, planes = _geometry_data(system)
    if cfg.fmt == "json":
        _write(cfg.out, _geometry_json(cfg, points, planes))
    else:
        _write(cfg.out, _geometry_csv(cfg, points, planes))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig) -> int:
    system = SpinPair(cfg.n1, cfg.n2)
    if cfg.fmt == "json":
        header, rows, fraction = geometry.sweep_rows(system, cfg.grid, cfg.tol)
        data = {
            "config": cfg.echo(),
            "header": list(header),
            "rows": [list(r) for r in rows],
            "be_region_fraction": fraction,
        }
        _write(cfg.out, json.dumps(data, indent=2) + "\n")
        return 0
    header, axes, index, codes, fraction = geometry._sweep_columns(system, cfg.grid, cfg.tol)
    # repr once per axis value; a row joins the strings of its coordinates and class
    columns = [np.array([repr(v) for v in ax.tolist()], dtype=object)[i]
               for ax, i in zip(axes, index)]
    classes = np.array(geometry._SWEEP_CLASSES, dtype=object)[codes]
    _write(cfg.out, "\n".join([
        _config_comment(cfg) + ",".join(header),
        *map(",".join, zip(*columns, classes)),
        f"# be_region_fraction={fraction!r}\n",
    ]))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_orthogonality_sums() -> float:
    worst = 0.0
    spins = [0, 0.5, 1, 1.5, 2]
    cases = 0
    for a in spins:
        for b in spins:
            for c in spins:
                for d in spins:
                    js = [x / 2 for x in range(0, 9)]
                    valid = [J for J in js
                             if abs(a - b) <= J <= a + b and abs(c - d) <= J <= c + d
                             and (a + b + J) % 1 == 0 and (c + d + J) % 1 == 0]
                    for J in valid[:2]:
                        for Jp in valid[:2]:
                            got = wigner.verify_orthogonality_sum(a, b, c, d, J, Jp)
                            want = ExactRadical.one() if J == Jp else ExactRadical.zero()
                            worst = max(worst, abs(float(got) - float(want)))
                            cases += 1
    if cases == 0:
        return float("inf")
    return worst


def _check_appendix_identity(n2_max: int) -> float:
    worst = 0.0
    for n1 in (4, 6, 8, 10):
        for n2 in range(n1, n2_max + 1):
            j1, j2 = (n1 - 1) / 2, (n2 - 1) / 2
            total = ExactRadical.zero()
            for k in range(n1):
                a = wigner.six_j(j1, j2, j2 - j1, j2, j1, k)
                b = wigner.six_j(j1, j2, j1 + j2, j2, j1, k)
                term = (a * b).scale(2 * k + 1)
                total = total + term + term.scale(-1 if k % 2 else 1)
            worst = max(worst, abs(float(total) + 1.0 / n2))
    return worst


def _check_l_orthogonality(perturb: bool) -> float:
    worst = 0.0
    for n1 in range(2, 13, 2):
        for n2 in range(n1, 25):
            l = states.build_l_matrix(SpinPair(n1, n2)).values.copy()
            if perturb and (n1, n2) == (4, 4):
                l[1, 1] += 1e-6
            worst = max(worst, float(np.abs(l @ l.T - np.eye(n1)).max()))
            worst = max(worst, float(np.abs(l.T @ l - np.eye(n1)).max()))
    return worst


def _check_explicit_l() -> float:
    worst = 0.0
    for n in range(4, 21):
        built = states.build_l_matrix(SpinPair(4, n)).values
        explicit = np.array([[float(e) for e in row]
                             for row in states.explicit_l_matrix_4xn(n).exact])
        worst = max(worst, float(np.abs(built - explicit).max()))
    return worst


def _check_named_points() -> float:
    worst = 0.0
    for n in (4, 6, 8, 12):
        named = geometry.named_points_4xn(n)
        extremes = geometry.alpha_extreme_points(SpinPair(4, n))
        for label, idx in zip("ABCD", range(4)):
            pipeline = states.alpha_to_beta(extremes[idx])
            worst = max(worst, float(np.abs(
                np.array(named[label].beta.coords) - pipeline.as_array()).max()))
        for label in ("E", "F", "G"):
            point = named[label]
            alpha = states.beta_to_alpha(point.beta).as_array()
            flip = states.beta_to_alpha(
                maps.partial_time_reversal(point.beta)).as_array()
            worst = max(worst, max(-alpha.min(), -flip.min(), 0.0))
            worst = max(worst, min(alpha.min(), flip.min(), 1.0))
    return worst


def _check_segment_threshold() -> float:
    worst = 0.0
    for n in range(4, 21):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if maps.breuer_detects(geometry.segment_state_4xn(n, mid)):
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(0.5 * (lo + hi) - geometry.segment_detection_threshold(n)))
    return worst


def _check_gamma_44() -> float:
    plane = geometry.gamma_hyperplane(SpinPair(4, 4))
    named = geometry.named_points_4xn(4)
    return max(abs(plane.evaluate(named[lab].beta)) for lab in ("D", "D'", "F", "F'"))


def _check_d_tilde_on_gamma(n2_max: int) -> float:
    worst = 0.0
    for n1 in (4, 6, 8, 10):
        for n2 in range(n1, n2_max + 1):
            system = SpinPair(n1, n2)
            plane = geometry.gamma_hyperplane(system)
            point = geometry.d_tilde_point(system)
            worst = max(worst, abs(plane.evaluate(point.beta)))
            alpha = states.beta_to_alpha(point.beta)
            worst = max(worst, max(0.0, -min(alpha.coords)))
    return worst


def _check_be_existence(n2_max: int) -> float:
    for n1 in (4, 6, 8, 10):
        for n2 in range(n1, n2_max + 1):
            found = geometry.find_detected_invariant_state(SpinPair(n1, n2))
            if found is None or not maps.breuer_detects(found):
                return 1.0
    return 0.0


def _check_dense_equivalence(seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((4, 4), (4, 6), (6, 6), (6, 8)):
        system = SpinPair(*dims)
        l = states.build_l_matrix(system).values
        for _ in range(25):
            raw = rng.random(system.n1)
            alpha = AlphaVector(system, raw / (system.norm_weights() @ raw))
            beta = states.alpha_to_beta(alpha)
            rho = dense.from_alpha(alpha)
            extracted = dense.extract_beta(rho, system)
            worst = max(worst, float(np.abs(
                extracted.as_array() - l @ alpha.as_array()).max()))
            image = dense.breuer_phi1(rho, system)
            min_eig, _ = dense.min_eigenvalue(image)
            min_alpha = min(states.beta_to_alpha(maps.breuer_map(beta)).coords)
            if (min_eig < -1e-10) != (min_alpha < -1e-10):
                worst = max(worst, 1.0)
            spec_theta = dense.spectrum(dense.theta1(rho, system))
            spec_pt = dense.spectrum(dense.partial_transpose_1(rho, system))
            worst = max(worst, float(np.abs(spec_theta - spec_pt).max()))
    return worst


def cmd_verify(cfg: RunConfig) -> int:
    checks = [
        ("orthogonality-sum-delta", _check_orthogonality_sums, 1e-15),
        ("appendix-sum-minus-1-over-n2", lambda: _check_appendix_identity(cfg.n2_max), 1e-12),
        ("l-orthogonality", lambda: _check_l_orthogonality(cfg.perturb_l), 1e-12),
        ("explicit-l-4xn", _check_explicit_l, 1e-12),
        ("pipeline-named-points", _check_named_points, 1e-10),
        ("segment-threshold", _check_segment_threshold, 1e-9),
        ("gamma-plane-4x4", _check_gamma_44, 1e-12),
        ("d-tilde-on-gamma", lambda: _check_d_tilde_on_gamma(cfg.n2_max), 1e-12),
        ("be-existence", lambda: _check_be_existence(cfg.n2_max), 0.5),
    ]
    if cfg.deep:
        checks.append(("dense-oracle-equivalence", lambda: _check_dense_equivalence(cfg.seed), 1e-10))

    lines = [_config_comment(cfg).rstrip("\n")]
    all_ok = True
    for name, func, bound in checks:
        residual = func()
        ok = residual <= bound
        all_ok &= ok
        lines.append(f"{name:<32} max_residual {residual:11.3e}  bound {bound:8.0e}  "
                     f"{'PASS' if ok else 'FAIL'}")
    lines.append("verification " + ("PASSED" if all_ok else "FAILED"))
    _write(cfg.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotinv",
        description="Rotationally invariant bipartite states: classification, "
                    "geometry and Breuer-map bound-entanglement detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_system=True):
        if with_system:
            p.add_argument("--n1", type=int, required=True, help="first subsystem dimension")
            p.add_argument("--n2", type=int, required=True, help="second subsystem dimension (>= n1)")
        p.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance")
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")

    p = sub.add_parser("classify", help="classify one invariant state")
    add_common(p)
    p.add_argument("--alpha", type=str, help="comma-separated projector coordinates")
    p.add_argument("--beta", type=str, help="comma-separated tensor coordinates")

    p = sub.add_parser("geometry", help="emit labelled points and hyperplanes")
    add_common(p)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="grid-sweep the theta_1-invariant polytope")
    add_common(p)
    p.add_argument("--grid", type=int, default=200, help="grid points per axis (>= 10)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the identity and cross-validation battery")
    add_common(p, with_system=False)
    p.add_argument("--deep", action="store_true",
                   help="add randomized dense-oracle equivalence checks")
    p.add_argument("--seed", type=int, default=12345, help="seed for randomized checks")
    p.add_argument("--n2-max", type=int, default=20, help="largest n2 in system sweeps")
    p.add_argument("--perturb-l", action="store_true", help=argparse.SUPPRESS)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    basis = None
    coords = None
    if args.command == "classify":
        if (args.alpha is None) == (args.beta is None):
            raise ValueError("classify needs exactly one of --alpha or --beta")
        basis = "alpha" if args.alpha is not None else "beta"
        coords = _parse_coords(args.alpha if basis == "alpha" else args.beta)
    return RunConfig(
        command=args.command,
        n1=getattr(args, "n1", 0) or 0,
        n2=getattr(args, "n2", 0) or 0,
        basis=basis,
        coords=coords,
        tol=args.tol,
        grid=getattr(args, "grid", 200),
        seed=getattr(args, "seed", 12345),
        fmt=getattr(args, "fmt", "csv"),
        out=args.out,
        deep=getattr(args, "deep", False),
        n2_max=getattr(args, "n2_max", 20),
        perturb_l=getattr(args, "perturb_l", False),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "geometry":
            return cmd_geometry(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_verify(cfg)
    except (ValueError, maps.BreuerNotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
