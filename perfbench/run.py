"""rotinv benchmark: four workloads, checked outputs, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify_mix --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of the named workload; with ``--trace 1`` they are the
per-layer ones, from traced sessions of every workload, plus the tracing
overhead of the named workload.

Each timed session is a fresh ``python3 perfbench/worker.py`` process that
imports rotinv from ``src/`` and runs one workload on one thread.  This
process generates the inputs from the seed, computes the references in
``reference.py`` and checks every output; none of that is timed or counted
in the session's memory.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0

WORKLOADS = ("classify_mix", "existence_cold", "sweep_export", "verify_deep")

# latency_tail_us percentile: the highest round percentile with at least ten
# samples beyond it at the smallest sample count a run can have
TAIL_PERCENTILE = {
    "classify_mix": 99.0,   # >= 1560 ops (one round)
    "existence_cold": 95.0,  # >= 228 ops (3 ladders)
    "sweep_export": 75.0,   # >= 42 ops (7 cycles of 6)
    "verify_deep": 75.0,    # >= 40 ops
}
MIN_OPS = {"classify_mix": 1560, "existence_cold": 76, "sweep_export": 42, "verify_deep": 40}
MIN_OPS_TRACED = {"classify_mix": 1, "existence_cold": 76, "sweep_export": 6, "verify_deep": 4}
EXISTENCE_MIN_SESSIONS = 3
# Timings are scaled to a machine on which worker.probe() takes this long
# (see README.md, "Machine-speed scaling")
PROBE_REF_NS = 1_000_000
MARGIN = 1e-6  # every classify_mix decision is this far from its boundary

CLASSIFY_SYSTEMS = ((4, 6), (4, 11), (6, 8), (6, 13), (8, 12), (10, 12))
CLASSIFY_PER_VERDICT = 60
SWEEP_GRID = {4: 40000, 6: 260}
ORACLE_SYSTEMS = ((4, 4), (4, 6), (6, 6), (6, 8))


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# inputs, made from the seed
# ---------------------------------------------------------------------------

def existence_ladder() -> list[tuple[int, int]]:
    return [(n1, n2) for n1 in range(4, 41, 2)
            for n2 in sorted({n1, n1 + 2, 2 * n1, 2 * n1 + 8})]


def _states_for(system_ref: ref.SystemReference, verdict: str, count: int, rng) -> list:
    """Rejection-sample states of one verdict whose decisions all clear MARGIN."""
    n1, n2 = system_ref.n1, system_ref.n2
    l, w = system_ref.l, system_ref.w
    batch = 4000

    def random_states(conc):
        p = rng.dirichlet(np.full(n1, conc), size=batch)
        return (p / w) @ l.T  # beta = L alpha, alpha = p / w

    if verdict == "NotAState":
        cand = random_states(1.0)
        cand[:, 1:] *= rng.uniform(2.0, 4.0, size=(batch, 1))
    elif verdict == "NptEntangled":
        cand = random_states(0.5)
    elif verdict == "PptUndetermined":
        mixed = w @ l.T
        cand = mixed + rng.uniform(0.0, 1.0, size=(batch, 1)) * (random_states(0.5) - mixed)
    elif verdict == "KnownSeparable":
        vertices = ref.separable_vertices_alpha(n2) @ l.T
        cand = rng.dirichlet(np.ones(4), size=batch) @ vertices
    elif verdict == "PptBoundEntangledDetected":
        # reflect theta_1-invariant states through D~'' (on Gamma, interior)
        top = np.zeros(n1)
        top[-1] = 1.0 / w[-1]
        d_tilde = ref.theta_flip(l @ top) * 0.5 + (l @ top) * 0.5
        others = random_states(1.0)
        others = 0.5 * (others + ref.theta_flip(others))
        mu = np.exp(rng.uniform(np.log(1e-6), np.log(0.3), size=(batch, 1)))
        cand = d_tilde + mu * (d_tilde - others)
    else:
        raise ValueError(verdict)
    cand[:, 0] = 1.0
    keep = ((np.array(system_ref.verdicts(cand)) == verdict)
            & (system_ref.margins(cand) >= MARGIN))
    picked = cand[keep][:count]
    if len(picked) < count:
        raise BenchError(f"could not generate {count} {verdict} states for {n1}x{n2}")
    return picked.tolist()


def classify_inputs(seed: int) -> tuple[dict, dict]:
    rng = np.random.default_rng([seed, 1])
    states, expected = [], []
    refs = {}
    for n1, n2 in CLASSIFY_SYSTEMS:
        sref = refs[(n1, n2)] = ref.SystemReference(n1, n2)
        verdicts = ref.VERDICTS if n1 == 4 else tuple(v for v in ref.VERDICTS if v != "KnownSeparable")
        for verdict in verdicts:
            for beta in _states_for(sref, verdict, CLASSIFY_PER_VERDICT, rng):
                states.append({"system": [n1, n2], "beta": beta})
                expected.append(verdict)
    order = rng.permutation(len(states))
    return ({"states": [states[i] for i in order]},
            {"expected": [expected[i] for i in order], "refs": refs})


def existence_inputs(seed: int, session: int) -> dict:
    ladder = existence_ladder()
    order = np.random.default_rng([seed, 2, session]).permutation(len(ladder))
    return {"ladder": [ladder[i] for i in order], "warmup_system": [4, 7]}


def existence_references() -> dict:
    out = {}
    for n1, n2 in existence_ladder():
        out[(n1, n2)] = {"spots": ref.l_spots(n1, n2),
                         "full": ref.l_matrix(n1, n2) if n1 <= 8 else None}
    return out


def sweep_inputs(seed: int, outdir: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    fours = rng.choice(np.arange(5, 21), size=3, replace=False)
    sixes = rng.choice(np.arange(6, 17), size=3, replace=False)
    cycle = []
    for a, b in zip(fours, sixes):
        cycle.append({"n1": 4, "n2": int(a), "grid": SWEEP_GRID[4]})
        cycle.append({"n1": 6, "n2": int(b), "grid": SWEEP_GRID[6]})
    return {"cycle": cycle, "outdir": str(outdir)}


def orthogonality_cases() -> list[tuple]:
    """The 6-j orthogonality cases that ``rotinv verify`` sums over."""
    spins = [0, 0.5, 1, 1.5, 2]
    js = [x / 2 for x in range(0, 9)]
    cases = []
    for a in spins:
        for b in spins:
            for c in spins:
                for d in spins:
                    valid = [j for j in js
                             if abs(a - b) <= j <= a + b and abs(c - d) <= j <= c + d
                             and (a + b + j) % 1 == 0 and (c + d + j) % 1 == 0]
                    cases += [(a, b, c, d, j, jp) for j in valid[:2] for jp in valid[:2]]
    return cases


def verify_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    seeds = rng.choice(2**31 - 1, size=401, replace=False)
    return {"setup_seed": int(seeds[0]), "seeds": [int(s) for s in seeds[1:]],
            "segment_ns": list(range(4, 21)), "orthogonality_cases": orthogonality_cases(),
            "oracle_systems": [list(s) for s in ORACLE_SYSTEMS]}


def control_inputs(outdir: Path) -> dict:
    beta = [1.0, 3.0, 0.0, 0.0]
    if ref.SystemReference(4, 6).verdicts(beta) != ["NotAState"]:
        raise BenchError("negative-control input is a state")
    return {"not_a_state": {"system": [4, 6], "beta": beta},
            "odd_sweep_out": str(outdir / "odd-sweep.csv")}


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class Runner:
    """Starts worker sessions, one at a time, within the run's deadline."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.count = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.env["PYTHONHASHSEED"] = "0"

    def session(self, workload: str, mode: str, inputs: dict, budget_s: float = 0.0,
                min_ops: int = 0, controls: dict | None = None) -> dict:
        self.count += 1
        spec_path = self.workdir / f"spec{self.count}.json"
        out_path = self.workdir / f"result{self.count}.json"
        spec = {"workload": workload, "mode": mode, "inputs": inputs, "budget_s": budget_s,
                "min_ops": min_ops, "controls": controls, "out": str(out_path)}
        spec_path.write_text(json.dumps(spec))
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before a session could start")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode} session ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} session failed:\n{proc.stderr}")
        result = json.loads(out_path.read_text())
        expected = ROOT / "src" / "rotinv" / "__init__.py"
        if Path(result["rotinv_file"]).resolve() != expected.resolve():
            raise BenchError(f"imported rotinv from {result['rotinv_file']}, not {expected}")
        return result


# ---------------------------------------------------------------------------
# checks: every output against the references or the method's own properties
# ---------------------------------------------------------------------------

def check_classify(results: list, states: list, checks: dict, problems: list):
    expected, refs = checks["expected"], checks["refs"]
    for i, (out, verdict, state) in enumerate(zip(results, expected, states)):
        if "error" in out:
            problems.append(f"classify #{i} raised {out['error']}")
            continue
        sref = refs[tuple(state["system"])]
        d = {k: float(v[0]) for k, v in sref.decisions(state["beta"]).items()}
        want = {
            "system": state["system"],
            "verdict": verdict,
            "is_state": verdict != "NotAState",
            "is_ppt": bool(d["min_theta1_alpha"] >= -ref.TOL),
            "breuer_detected": bool(d["min_breuer_alpha"] < -ref.TOL),
            "known_separable": verdict == "KnownSeparable",
            "tol": ref.TOL,
        }
        for key, value in want.items():
            if out.get(key) != value:
                problems.append(f"classify #{i} {state['system']}: {key}={out.get(key)!r}, "
                                f"reference {value!r}")
        for key in ("min_alpha", "min_theta1_alpha", "min_breuer_alpha"):
            if abs(out[key] - d[key]) > 1e-9:
                problems.append(f"classify #{i}: {key}={out[key]!r}, reference {d[key]!r}")


def check_existence(ops: list, refs: dict, problems: list) -> int:
    """Checks one ladder; returns the number of failed operations."""
    failed = 0
    for op in ops:
        if "error" in op:
            failed += 1
            problems.append(f"existence op raised {op['error']}")
            continue
        n1, n2 = op["system"]
        where = f"existence {n1}x{n2}"
        l = np.array(op["l"])
        r = refs[(n1, n2)]
        if np.abs(l @ l.T - np.eye(n1)).max() > 1e-12:
            problems.append(f"{where}: L is not orthogonal")
        for (k, j), value in r["spots"].items():
            if abs(l[k, j] - value) > 1e-12:
                problems.append(f"{where}: L[{k},{j}]={l[k, j]!r}, sympy {value!r}")
        if r["full"] is not None and np.abs(l - r["full"]).max() > 1e-12:
            problems.append(f"{where}: L differs from the full sympy matrix")
        if np.abs(np.array(op["plane_constants"]) - l[0]).max() > 1e-15:
            problems.append(f"{where}: polytope constants are not row K=0 of L")
        const, coeffs = op["gamma"]
        on_gamma = const + np.dot(coeffs, op["d_tilde"][2::2])
        if abs(on_gamma) > 1e-12:
            problems.append(f"{where}: D~'' is {on_gamma:.3e} off Gamma")
        witness = op["witness"]
        if witness is None:
            failed += 1
            continue
        beta = np.array(witness)
        full = r["full"] if r["full"] is not None else l
        if beta[0] != 1.0 or np.any(beta[1::2] != 0.0):
            problems.append(f"{where}: witness is not a theta_1-invariant normalized vector")
        if (beta @ full).min() < -ref.TOL:
            problems.append(f"{where}: witness is not a state, so not PPT")
        if (ref.breuer_image(beta) @ full).min() >= -ref.TOL:
            problems.append(f"{where}: witness is not Breuer-detected")
        if op["verdict"]["verdict"] != "PptBoundEntangledDetected":
            problems.append(f"{where}: witness classifies as {op['verdict']['verdict']}")
    return failed


def check_sweep(files: list, cycle: list, refs: dict, problems: list):
    """Checks every file written, then removes it."""
    digests: dict[int, bytes] = {}
    for index, path in files:
        path = Path(path)
        if not path.exists():
            problems.append(f"sweep op {path.name} wrote no file")
            continue
        data = path.read_bytes()
        path.unlink()
        if index in digests:
            if data != digests[index]:
                problems.append(f"sweep {cycle[index]}: output differs between operations")
            continue
        digests[index] = data
        cfg, r = cycle[index], refs[index]
        lines = data.decode().splitlines()
        where = f"sweep {cfg['n1']}x{cfg['n2']} grid {cfg['grid']}"
        header = ",".join(f"beta_K={k}" for k in range(2, cfg["n1"] - 1, 2)) + ",class"
        if not lines[0].startswith("# rotinv command=sweep") or lines[1] != header:
            problems.append(f"{where}: unexpected preamble {lines[:2]}")
            continue
        classes = Counter(line.rsplit(",", 1)[1] for line in lines[2:-1])
        fraction = float(lines[-1].split("=", 1)[1])
        n_rows = sum(classes.values())
        bounds = {"rows": (n_rows, "inside"),
                  "detected": (classes["PptBoundEntangledDetected"], "detected")}
        if cfg["n1"] == 4:
            bounds["separable"] = (classes["KnownSeparable"], "separable")
        for label, (count, key) in bounds.items():
            if not r[key + "_lo"] <= count <= r[key + "_hi"]:
                problems.append(f"{where}: {label} count {count} outside the independent "
                                f"[{r[key + '_lo']}, {r[key + '_hi']}]")
        if abs(fraction - r["fraction"]) > r["fraction_tol"]:
            problems.append(f"{where}: fraction {fraction} vs grid-free {r['fraction']} "
                            f"(tolerance {r['fraction_tol']:.2e})")


def check_verify(runs: list, problems: list):
    for run in runs:
        if isinstance(run, dict):
            problems.append(f"verify raised {run['error']}")
            continue
        seed, code, text = run
        lines = text.splitlines()
        checks = lines[1:-1]
        if code != 0 or lines[-1] != "verification PASSED":
            problems.append(f"verify --seed {seed}: exit {code}, {lines[-1:]}")
        if f" seed={seed} " not in lines[0]:
            problems.append(f"verify --seed {seed}: seed not echoed in {lines[0]!r}")
        if not any(line.startswith("dense-oracle-equivalence") for line in checks):
            problems.append(f"verify --seed {seed}: no dense-oracle check")
        for line in checks:
            if not line.endswith("PASS"):
                problems.append(f"verify --seed {seed}: {line}")


def check_controls(controls: dict, problems: list):
    lines = controls["perturb_l"]["text"].splitlines()
    if controls["perturb_l"]["code"] != 1 or not any(
            line.startswith("l-orthogonality") and line.endswith("FAIL") for line in lines):
        problems.append("control: verify --perturb-l did not fail l-orthogonality with exit 1")
    if controls["not_a_state"]["verdict"] != "NotAState":
        problems.append(f"control: non-state classified as {controls['not_a_state']['verdict']}")
    odd = controls["odd_sweep"]
    if odd["code"] != 2 or not odd["stderr"].startswith("error:"):
        problems.append(f"control: sweep with odd n1 exited {odd['code']}")


# ---------------------------------------------------------------------------
# workloads: sessions, checks and the numbers they give
# ---------------------------------------------------------------------------

class Workload:
    """Inputs, sessions and checks of one workload in one run."""

    def __init__(self, name: str, seed: int, runner: Runner, workdir: Path):
        self.name, self.seed, self.runner = name, seed, runner
        self.problems: list[str] = []
        if name == "classify_mix":
            self.inputs, self.checks = classify_inputs(seed)
        elif name == "existence_cold":
            self.refs = existence_references()
        elif name == "sweep_export":
            self.inputs = sweep_inputs(seed, workdir)
            self.refs = [ref.sweep_reference(c["n1"], c["n2"], c["grid"])
                         for c in self.inputs["cycle"]]
        else:
            self.inputs = verify_inputs(seed)

    def session_inputs(self, index: int) -> dict:
        if self.name == "existence_cold":
            return existence_inputs(self.seed, index)
        return self.inputs

    def timed(self, mode: str, budget_s: float, min_ops: int, controls=None,
              min_sessions: int = 1) -> list[dict]:
        """Timed sessions; existence_cold takes one fresh process per ladder."""
        if self.name != "existence_cold":
            return [self.runner.session(self.name, mode, self.inputs, budget_s, min_ops, controls)]
        sessions, spent = [], 0.0
        while spent < budget_s or len(sessions) < min_sessions:
            result = self.runner.session(self.name, mode, self.session_inputs(len(sessions)),
                                         budget_s, min_ops, controls if not sessions else None)
            sessions.append(result)
            spent += result["phase_s"]
        return sessions

    def setup_only(self) -> dict:
        return self.runner.session(self.name, "setup", self.session_inputs(0))

    def check(self, sessions: list[dict]) -> tuple[int, int]:
        """Checks every session's outputs; returns (attempted, failed)."""
        attempted = failed = 0
        for s in sessions:
            attempted += len(s["latencies_ns"])
            out = s["outputs"]
            if s["rounds_differing"]:
                self.problems.append(f"{self.name}: {s['rounds_differing']} rounds differ "
                                     f"from the first")
            if self.name == "classify_mix":
                check_classify(out["first_round"], self.inputs["states"], self.checks,
                               self.problems)
            elif self.name == "existence_cold":
                failed += check_existence(out["ops"], self.refs, self.problems)
            elif self.name == "sweep_export":
                check_sweep(out["files"], self.inputs["cycle"], self.refs, self.problems)
            else:
                check_verify(out["runs"], self.problems)
            if "controls" in s:
                check_controls(s["controls"], self.problems)
        return attempted, failed


def timing_sample(name: str, sessions: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Op latencies in us, raw and scaled to PROBE_REF_NS by their window's probes."""
    raw, scaled = [], []
    for s in sessions:
        lat = np.array(s["latencies_ns"], dtype=float) / 1e3
        probes = np.array(s["probes_ns"], dtype=float)
        factor = PROBE_REF_NS / (0.5 * (probes[:-1] + probes[1:]))
        if name == "classify_mix":  # one window per round
            factor = np.repeat(factor, len(lat) // s["rounds"])
        raw.append(lat)
        scaled.append(lat * factor)
    return np.concatenate(raw), np.concatenate(scaled)


def end_to_end(workload: Workload, budget_s: float, controls: dict) -> tuple[dict, int, int]:
    setups = [workload.setup_only()] if workload.name != "existence_cold" else []
    sessions = workload.timed("run", budget_s, MIN_OPS[workload.name], controls,
                              EXISTENCE_MIN_SESSIONS)
    if workload.name != "existence_cold":
        setups.append(workload.setup_only())
    attempted, failed = workload.check(sessions)
    raw, latencies = timing_sample(workload.name, sessions)
    setup = [s["setup_s"] * PROBE_REF_NS / s["setup_probe_ns"] for s in setups + sessions]
    print(f"{workload.name}: raw p50 {np.median(raw):.6g} us, raw setup "
          f"{statistics.median(s['setup_s'] for s in setups + sessions):.4g} s, "
          f"machine-speed scale {np.median(latencies / raw):.3f}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / (latencies.sum() / 1e6), "1/s"),
        "latency_p50_us": (float(np.percentile(latencies, 50)), "us"),
        "latency_tail_us": (float(np.percentile(latencies, TAIL_PERCENTILE[workload.name])), "us"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sessions), "MB"),
    }
    return metrics, attempted, failed


def _durations(spans: list, name: str) -> np.ndarray:
    return np.array([duration for n, duration in spans if n == name], dtype=float)


def scaled_spans(name: str, sessions: list[dict]) -> list[tuple]:
    """Spans with their duration scaled like the op latencies they belong to."""
    out = []
    for s in sessions:
        probes = np.array(s["probes_ns"], dtype=float)
        factor = PROBE_REF_NS / (0.5 * (probes[:-1] + probes[1:]))
        if name == "classify_mix":
            factor = np.repeat(factor, len(s["latencies_ns"]) // s["rounds"])
        before = PROBE_REF_NS / s["setup_probe_ns"]  # spans made before the first op
        for span_name, op, parent, start, end in s["spans"]:
            out.append((span_name, (end - start) * (factor[op] if op >= 0 else before)))
    return out


def layer_metrics(name: str, sessions: list[dict], inputs: dict) -> dict:
    spans = scaled_spans(name, sessions)

    def median_of(span_name, scale):
        return float(np.median(_durations(spans, span_name))) / scale

    if name == "classify_mix":
        return {
            "states.beta_to_alpha_us": (median_of("states.beta_to_alpha", 1e3), "us"),
            "maps.is_ppt_us": (median_of("maps.is_ppt", 1e3), "us"),
            "maps.breuer_detects_us": (median_of("maps.breuer_detects", 1e3), "us"),
            "maps.classify_us": (median_of("maps.classify", 1e3), "us"),
            "maps.to_json_us": (median_of("maps.to_json", 1e3), "us"),
            "geometry.separable_4xn_us": (median_of("geometry.separable_4xn", 1e3), "us"),
        }
    if name == "existence_cold":
        symbols = sum(n1 * n1 for n1, _ in existence_ladder())
        cold = _durations(spans, "wigner.six_j_cold").sum() / len(sessions)
        return {
            "wigner.six_j_cold_us": (cold / symbols / 1e3, "us"),
            "wigner.six_j_symbols": (symbols, "count"),
            "states.l_assemble_ms": (median_of("states.l_assemble", 1e6), "ms"),
            "states.l_to_float_ms": (median_of("states.l_to_float", 1e6), "ms"),
            "geometry.exact_objects_ms": (median_of("geometry.exact_objects", 1e6), "ms"),
            "geometry.witness_search_ms": (median_of("geometry.witness_search", 1e6), "ms"),
        }
    if name == "sweep_export":
        rows_ns = _durations(spans, "geometry.sweep_rows")
        write_ns = _durations(spans, "cli.sweep") - rows_ns
        counts = np.array([c for s in sessions for c in s["counts"]])
        return {
            "geometry.bounding_box_ms": (median_of("geometry.bounding_box", 1e6), "ms"),
            "geometry.sweep_rows_ms": (float(np.median(rows_ns)) / 1e6, "ms"),
            "geometry.grid_points_per_s": (counts[:, 1].sum() / (rows_ns.sum() / 1e9), "1/s"),
            "cli.sweep_write_ms": (float(np.median(write_ns)) / 1e6, "ms"),
            "cli.rows_written": (float(np.median(counts[:, 0])), "count"),
        }
    return {
        "geometry.segment_state_us": (median_of("geometry.segment_state", 1e3)
                                      / len(inputs["segment_ns"]), "us"),
        "wigner.orthogonality_sum_ms": (median_of("wigner.orthogonality_sum", 1e6), "ms"),
        "dense.coupled_basis_cold_ms": (median_of("dense.coupled_basis_cold", 1e6), "ms"),
        "dense.oracle_state_ms": (median_of("dense.oracle_state", 1e6), "ms"),
    }


def import_seconds(module: str, env: dict, repeats: int = 3) -> float:
    """Median wall time of ``import module`` in a fresh interpreter, scaled."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "t = time.perf_counter() - t; import sys; sys.path.insert(0, 'perfbench'); "
            "from worker import probe; print(t, probe())")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        seconds, probe_ns = map(float, out.stdout.split())
        times.append(seconds * PROBE_REF_NS / probe_ns)
    return statistics.median(times)


def per_layer(named: Workload, workloads: dict, runner: Runner, budget_s: float,
              controls: dict, trace_path: Path) -> tuple[dict, int, int]:
    metrics = {
        "import.rotinv_s": (import_seconds("rotinv", runner.env), "s"),
        "import.scipy_optimize_s": (import_seconds("scipy.optimize", runner.env), "s"),
    }
    trace = {}
    attempted = failed = 0
    for name, workload in workloads.items():
        share = budget_s / (len(workloads) + 1)
        sessions = workload.timed("trace", share, MIN_OPS_TRACED[name],
                                  controls if workload is named else None)
        counts = workload.check(sessions)
        metrics.update(layer_metrics(name, sessions, workload.session_inputs(0)))
        trace[name] = [s["spans"] for s in sessions]
        if workload is named:
            attempted, failed = counts
            plain = workload.timed("run", share, MIN_OPS_TRACED[name])
            # mean time per op, traced over untraced = untraced ops_per_s over traced
            ratio = timing_sample(name, sessions)[1].mean() / timing_sample(name, plain)[1].mean()
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
    trace_path.write_text(json.dumps({"workload": named.name, "seed": named.seed,
                                      "span_fields": ["name", "op", "parent", "start_ns",
                                                      "end_ns"],
                                      "sessions": trace}))
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    package = ROOT / "src" / "rotinv"
    if not (package / "__init__.py").is_file():
        print(f"error: no rotinv sources under {package}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(package), quiet=1)

    outdir = HERE / "out"
    workdir = outdir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, started)
        controls = control_inputs(workdir)
        if args.trace:
            workloads = {name: Workload(name, args.seed, runner, workdir) for name in WORKLOADS}
            named = workloads[args.workload]
            metrics, attempted, failed = per_layer(
                named, workloads, runner, args.seconds, controls,
                outdir / f"trace-{args.workload}-{args.seed}.json")
            problems = [p for w in workloads.values() for p in w.problems]
        else:
            named = Workload(args.workload, args.seed, runner, workdir)
            metrics, attempted, failed = end_to_end(named, args.seconds, controls)
            problems = named.problems
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<15} {name:<28} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
