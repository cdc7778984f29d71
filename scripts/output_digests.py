#!/usr/bin/env python3
"""Print one sha256 digest per rotinv output over a fixed list of outputs.

Every output is produced in-process by the ``rotinv`` found on the import
path, and each printed line reads ``<sha256>  <name>``.  A command's
digest covers its stdout, its stderr and its exit code, a usage error's
exit code 2 from argparse included, and a command that raises records the
exception's type and message instead of stopping the listing; the
``rotinv classify`` commands run on fixed literals and cover every
verdict; a ``classify`` digest covers
``json.dumps(classify(beta).to_json_dict())`` for every seeded state of
one n1; a ``dense oracle`` digest covers the bytes of the dense-matrix
arrays of one system; the ``witness`` digest covers the coordinate bytes
of ``find_detected_invariant_state``, or ``None``, at each size of the
existence ladder (even n1, n2 in {n1, n1+2, 2n1, 2n1+8}); the full list's
``exact-l`` digest covers ``repr`` of every exact L entry for
n1 = 2..20, n2 = n1..n1+12, and its ``named-4xn`` digest covers, for
N = 4..40, ``repr`` of every exact coordinate and the float bytes of each
labelled 4 x N point (signed zeros included) and ``repr`` of every entry
of ``explicit_l_matrix_4xn``; its ``verify --deep`` runs are seeds 0..199
and 12345, one line each, and ``--perturb-l``.  To check that a change
leaves every output byte-identical, run the script against both trees and
diff the listings, once with default BLAS, once with one BLAS thread and
once under each of the FMA and the no-FMA OpenBLAS kernel families:

    PYTHONPATH=/path/to/old/src python scripts/output_digests.py > old.txt
    PYTHONPATH=src python scripts/output_digests.py > new.txt
    diff old.txt new.txt
    # again with OPENBLAS_NUM_THREADS=1, OPENBLAS_CORETYPE=Haswell and
    # OPENBLAS_CORETYPE=SandyBridge before each python

Listings differ between kernel families, so compare old against new
under one setting, never one setting against another.

This listing is the whole byte contract: CI diffs it in exactly this way
and captures no other output.  On every Python it tests, CI also diffs the
``--quick`` list under default BLAS against one BLAS thread.

``--quick`` runs a short list with a few outputs of each kind, the dense
oracle check of ``verify --deep --seed 7``, the dense arrays of 4 x 4 and
of 6 x 8 (an n1 = 6 operator stack) and the 4 x 9 JSON sweep, the one
sweep that prints ``KnownSeparable``, among them.  The seeded
states come from numpy and the public rotinv API only, and the oracle is
reached as ``rotinv.dense``, ``rotinv.pi_project`` and
``rotinv.PureProductState``, so both trees see the same inputs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys

import numpy as np

from rotinv import (AlphaVector, BetaVector, PureProductState, SpinPair, build_l_matrix,
                    classify, dense, find_detected_invariant_state, pi_project)
from rotinv.cli import main as rotinv_main
from rotinv.geometry import d_tilde_point, explicit_l_matrix_4xn, named_points_4xn


def seeded_states(seed: int, count: int) -> list[BetaVector]:
    """``count`` states over 2 <= n1 <= 10, n1 <= n2 <= n1 + 8, with beta_0 = 1.

    Mixes random states, stretched non-states, states pulled towards the
    maximally mixed state, states past D~'' (detected for even n1 >= 4),
    points of the 4 x N separable tetrahedron DD'EE', and theta_1-invariant
    states whose odd coordinates are exactly zero.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n1 = int(rng.integers(2, 11))
        system = SpinPair(n1, n1 + int(rng.integers(0, 9)))
        l, w = build_l_matrix(system).values, system.norm_weights()

        def random_beta(conc=0.5):
            return l @ (rng.dirichlet(np.full(n1, conc)) / w)

        kind = int(rng.integers(0, 6))
        beta = random_beta()
        if kind == 1:
            beta[1:] *= rng.uniform(1.5, 4.0)
        elif kind == 2:
            mixed = l @ w
            beta = mixed + rng.uniform(0.0, 1.0) * (beta - mixed)
        elif kind == 3 and system.breuer_applicable:
            d = np.array(d_tilde_point(system).beta.coords)
            other = random_beta(1.0)
            other[1::2] = 0.0
            beta = d + np.exp(rng.uniform(np.log(1e-6), np.log(0.3))) * (d - other)
        elif kind == 4 and n1 == 4:
            points = named_points_4xn(system.n2)
            vertices = np.array([points[label].beta.coords for label in ("D", "D'", "E", "E'")])
            beta = rng.dirichlet(np.ones(4)) @ vertices
        elif kind >= 3:
            beta[1::2] = 0.0
        beta[0] = 1.0
        out.append(BetaVector(system, beta.tolist()))
    return out


def _classify_digests(seed: int, count: int) -> list[tuple[str, bytes]]:
    by_n1: dict[int, list[str]] = {}
    for beta in seeded_states(seed, count):
        by_n1.setdefault(beta.system.n1, []).append(json.dumps(classify(beta).to_json_dict()))
    return [(f"classify n1={n1} ({len(lines)} states, seed {seed})",
             "\n".join(lines).encode())
            for n1, lines in sorted(by_n1.items())]


def _dense_digest(system: SpinPair, seed: int, count: int = 4) -> tuple[str, bytes]:
    """The oracle's arrays for one system: the coupled basis, every Q_K, both
    time-reversal unitaries, the twirl of seeded product states, and
    from_alpha, theta1 and breuer_phi1 of seeded states."""
    rng = np.random.default_rng([seed, system.n1, system.n2])
    arrays = [dense.coupled_basis(system)]
    arrays += [dense.invariant_q(system, k) for k in system.k_values()]
    arrays += [dense.time_reversal(system.n1), dense.time_reversal(system.n2)]
    w = system.norm_weights()
    for _ in range(count):
        amps = []
        for n in (system.n1, system.n2):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps.append(tuple((v / np.linalg.norm(v)).tolist()))
        arrays.append(np.array(pi_project(PureProductState(system, *amps)).coords))
        alpha = AlphaVector(system, (rng.dirichlet(np.ones(system.n1)) / w).tolist())
        rho = dense.from_alpha(alpha)
        arrays += [rho, dense.theta1(rho, system), dense.breuer_phi1(rho, system)]
    return (f"dense oracle {system.n1}x{system.n2} (seed {seed})",
            b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))


def _witness_digest(sizes: list[tuple[int, int]]) -> tuple[str, bytes]:
    """The witness's coordinate bytes at each size, or b"None" where float64 confirms none."""
    parts = []
    for n1, n2 in sizes:
        beta = find_detected_invariant_state(SpinPair(n1, n2))
        parts.append(b"None" if beta is None else np.array(beta.coords).tobytes())
    n1, n2 = sizes[-1]
    return f"witness, {len(sizes)} existence-ladder size(s) up to {n1}x{n2}", b"".join(parts)


def _exact_l_digest() -> tuple[str, bytes]:
    """``repr`` of every exact L entry for n1 = 2..20, n2 = n1..n1+12, row by row."""
    reprs = [repr(entry) for n1 in range(2, 21) for n2 in range(n1, n1 + 13)
             for row in build_l_matrix(SpinPair(n1, n2)).exact for entry in row]
    return f"exact-l, {len(reprs)} entries, n1 = 2..20, n2 = n1..n1+12", "".join(reprs).encode()


# the labelled 4 x N points in a fixed order, whatever order the builder returns
NAMED_4XN_LABELS = ("A", "B", "C", "D", "A'", "B'", "C'", "D'",
                    "E", "F", "G", "E'", "F'", "G'", "D''")


def _named_4xn_digest() -> tuple[str, bytes]:
    """Per N = 4..40: each labelled point's exact ``repr``s and float bytes, then L's ``repr``s."""
    parts = []
    for n in range(4, 41):
        points = named_points_4xn(n)
        for label in NAMED_4XN_LABELS:
            point = points[label]
            parts += [label.encode(), "".join(map(repr, point.exact)).encode(),
                      np.array(point.beta.coords).tobytes()]
        parts += [repr(entry).encode() for row in explicit_l_matrix_4xn(n).exact for entry in row]
    return f"named-4xn, {len(NAMED_4XN_LABELS)} points and L, N = 4..40", b"".join(parts)


def _command(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    raised = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rotinv_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # recorded, so the rest of the listing still runs
            code, raised["raised"] = None, f"{type(exc).__name__}: {exc}"
    return json.dumps({"exit": code, "stdout": out.getvalue(),
                       "stderr": err.getvalue(), **raised}).encode()


def _system(n1: int, n2: int) -> list[str]:
    return ["--n1", str(n1), "--n2", str(n2)]


# classify runs on fixed literals: every verdict on 4 x N from beta and from
# alpha input, an odd-n1 state (its record carries the Breuer note) and the
# 10 x 12 witness state, which the Breuer map detects
CLASSIFY_COMMANDS = [
    ["classify", *_system(4, 4), "--beta", "1,0,0,0"],
    ["classify", *_system(4, 4), "--alpha",
     "0.25,0.4330127018922193,0.5590169943749475,0.6614378277661477"],
    ["classify", *_system(4, 4), "--alpha", "4,0,0,0"],
    ["classify", *_system(4, 6), "--beta", "1,0,0,2"],
    ["classify", *_system(4, 6), "--beta", "1,0,0.7,0"],
    ["classify", *_system(4, 6), "--beta", "1,-0.2,0.2,-0.5", "--tol", "1e-8"],
    ["classify", *_system(5, 7), "--beta", "1,0.1,0.2,0,0"],
    ["classify", *_system(10, 12), "--beta", "1.0,0.0,1.2841107966820957,0.0,"
     "0.45330272376211267,0.0,0.058265577990400955,0.0,0.002140439490531209,0.0"],
]

# invocations that exit 2: input off the trace condition, a bad tolerance,
# unsupported systems, a coarse grid, a small --n2-max, --tol where the
# command takes none, and a negative seed
ERROR_COMMANDS = [
    ["classify", *_system(4, 6), "--beta", "2,0,0.2,0"],
    ["classify", *_system(5, 7), "--beta", "2,0,0.2,0,0"],
    ["classify", *_system(4, 4), "--beta", "1,0,0,0", "--tol", "0"],
    ["geometry", *_system(5, 7)],
    ["sweep", *_system(8, 8)],
    ["sweep", *_system(6, 8), "--grid", "5"],
    ["sweep", *_system(6, 8), "--grid", "5", "--format", "json"],
    ["verify", "--n2-max", "5"],
    ["geometry", *_system(6, 8), "--tol", "1e-8"],
    ["verify", "--tol", "1e-8"],
    ["verify", "--seed", "-1"],
]


def command_list(quick: bool) -> list[list[str]]:
    """The CLI invocations whose outputs are digested."""
    if quick:
        sweeps = [(4, 5, 200), (6, 8, 30)]
        geometries = [(4, 4), (6, 11)]
        verifies = [["verify", "--perturb-l"], ["verify", "--deep", "--seed", "7"]]
        errors = [["geometry", *_system(6, 8), "--tol", "1e-8"]]
        classifies = [["classify", *_system(4, 4), "--alpha", "4,0,0,0"]]
    else:
        sweeps = ([(4, n2, 200) for n2 in range(4, 41)]
                  + [(4, n2, 40000) for n2 in (*range(4, 21), 40)]
                  + [(6, n2, 260) for n2 in range(6, 17)])
        geometries = [(n1, n2) for n1 in range(4, 13, 2)
                      for n2 in (n1, n1 + 5, 2 * n1 + 8)]
        verifies = [["verify"],
                    *(["verify", "--deep", "--seed", str(seed)] for seed in (*range(200), 12345)),
                    ["verify", "--deep", "--perturb-l"],
                    ["verify", "--perturb-l"]]
        errors = ERROR_COMMANDS
        classifies = CLASSIFY_COMMANDS
    commands = [["sweep", *_system(n1, n2), "--grid", str(grid)] for n1, n2, grid in sweeps]
    # a 4 x N JSON sweep prints KnownSeparable, which 6 x N cannot
    commands += [["sweep", *_system(6, 8), "--grid", "15", "--format", "json"],
                 ["sweep", *_system(4, 9), "--grid", "200", "--format", "json"]]
    commands += [["geometry", *_system(n1, n2), "--format", fmt]
                 for n1, n2 in geometries for fmt in ("csv", "json")]
    return commands + verifies + errors + classifies


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="digest a short list")
    parser.add_argument("--seed", type=int, default=8, help="seed of the classify states")
    args = parser.parse_args(argv)

    dense_systems = [(4, 4), (6, 8)] if args.quick else [(4, 4), (4, 6), (6, 6), (6, 8)]
    ladder = [(4, 6)] if args.quick else [(n1, n2) for n1 in range(4, 21, 2)
                                          for n2 in (n1, n1 + 2, 2 * n1, 2 * n1 + 8)]
    digests = _classify_digests(args.seed, 200 if args.quick else 10_000)
    digests += [_dense_digest(SpinPair(n1, n2), args.seed) for n1, n2 in dense_systems]
    digests.append(_witness_digest(ladder))
    if not args.quick:
        digests += [_exact_l_digest(), _named_4xn_digest()]
    for name, data in digests:
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    for command in command_list(args.quick):
        print(f"{hashlib.sha256(_command(command)).hexdigest()}  rotinv {' '.join(command)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
