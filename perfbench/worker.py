"""One benchmark session: import rotinv, set up one workload, time its operations.

Run by ``run.py`` in a fresh interpreter as ``python3 worker.py SPEC.json``.
The spec names the workload, the mode (``setup``: stop after set-up;
``run``: time operations; ``trace``: time operations with spans around
each public call), the time budget and the generated inputs.  The session
writes its timings and raw outputs to ``spec["out"]``; it runs no reference
or check code, so everything it measures belongs to rotinv.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time

perf = time.perf_counter
perf_ns = time.perf_counter_ns
PROBE_LOOPS = 4000


class Tracer:
    """Spans (name, op, parent, start_ns, end_ns) kept in memory until the end."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.op = -1
        self._stack: list[str] = []

    def call(self, name: str, fn, *args):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = perf_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, self.op, parent, t0, perf_ns()))
            self._stack.pop()


# ---------------------------------------------------------------------------
# workloads: set-up, one round of operations, and the traced form of an op
# ---------------------------------------------------------------------------

class ClassifyMix:
    """Warm per-state classification: maps.classify + Classification.to_json_dict."""

    modules = ("rotinv",)
    probe_per_round = True

    def __init__(self, rotinv, inputs):
        self.rotinv = rotinv
        self.inputs = inputs
        self.first: list | None = None

    def prepare(self):
        ri = self.rotinv
        self.betas = [ri.BetaVector(ri.SpinPair(*s["system"]), s["beta"])
                      for s in self.inputs["states"]]

    def setup(self):
        seen = set()
        for beta in self.betas:
            key = (beta.system.n1, beta.system.n2)
            if key not in seen:
                seen.add(key)
                self.rotinv.classify(beta).to_json_dict()

    def round_ops(self, index):
        classify = self.rotinv.classify
        return [lambda b=b: classify(b).to_json_dict() for b in self.betas]

    def traced_ops(self, index, tr: Tracer):
        ri = self.rotinv

        def op(b):
            tr.call("states.beta_to_alpha", ri.beta_to_alpha, b)
            tr.call("maps.is_ppt", ri.is_ppt, b)
            tr.call("maps.breuer_detects", ri.breuer_detects, b)
            if b.system.n1 == 4:
                tr.call("geometry.separable_4xn", ri.minimal_separable_membership_4xn, b)
            c = tr.call("maps.classify", ri.classify, b)
            return tr.call("maps.to_json", c.to_json_dict)
        return [lambda b=b: op(b) for b in self.betas]

    def after_round(self, outputs) -> bool:
        """Keep the first round; later rounds must repeat it exactly."""
        if self.first is None:
            self.first = outputs
            return True
        return outputs == self.first

    def export(self):
        return {"first_round": self.first}


class ExistenceCold:
    """The paper's existence chain on fresh systems, one ladder per process."""

    modules = ("rotinv",)

    single_round = True

    def __init__(self, rotinv, inputs):
        self.rotinv = rotinv
        self.inputs = inputs
        self.outputs: list = []

    def prepare(self):
        self.systems = [self.rotinv.SpinPair(n1, n2) for n1, n2 in self.inputs["ladder"]]

    def setup(self):
        # a system outside the ladder, so that no ladder symbol is warmed
        self._chain(self.rotinv.SpinPair(*self.inputs["warmup_system"]))

    def _chain(self, system):
        ri = self.rotinv
        l = ri.build_l_matrix(system)
        values = l.values
        gamma = ri.gamma_hyperplane(system)
        d_tilde = ri.d_tilde_point(system)
        planes = ri.theta1_polytope(system)
        witness = ri.find_detected_invariant_state(system)
        verdict = ri.classify(witness).to_json_dict() if witness is not None else None
        return system, values, gamma, d_tilde, planes, witness, verdict

    def round_ops(self, index):
        return [lambda s=s: self._chain(s) for s in self.systems]

    def traced_ops(self, index, tr: Tracer):
        ri = self.rotinv

        def symbols(system):
            j1, j2 = system.j1, system.j2
            for k in system.k_values():
                for j in system.j_values():
                    ri.six_j(j1, j2, j, j2, j1, k)

        def op(system):
            tr.call("wigner.six_j_cold", symbols, system)
            l = tr.call("states.l_assemble", ri.build_l_matrix, system)
            values = tr.call("states.l_to_float", lambda: l.values)

            def exact_objects():
                return (ri.gamma_hyperplane(system), ri.d_tilde_point(system),
                        ri.theta1_polytope(system))
            gamma, d_tilde, planes = tr.call("geometry.exact_objects", exact_objects)
            witness = tr.call("geometry.witness_search", ri.find_detected_invariant_state, system)
            verdict = None
            if witness is not None:
                verdict = tr.call("maps.classify", lambda: ri.classify(witness).to_json_dict())
            return system, values, gamma, d_tilde, planes, witness, verdict
        return [lambda s=s: op(s) for s in self.systems]

    def after_round(self, outputs) -> bool:
        self.outputs = outputs
        return True

    def export(self):
        out = []
        for op in self.outputs:
            if isinstance(op, dict):  # the op raised
                out.append(op)
                continue
            system, values, gamma, d_tilde, planes, witness, verdict = op
            out.append({
                "system": [system.n1, system.n2],
                "l": values.tolist(),
                "gamma": [gamma.constant, list(gamma.coeffs)],
                "d_tilde": list(d_tilde.beta.coords),
                "plane_constants": [p.constant for p in planes],
                "witness": list(witness.coords) if witness is not None else None,
                "verdict": verdict,
            })
        return {"ops": out}


class SweepExport:
    """``rotinv sweep ... --out FILE`` in-process over a cycle of 4 x N and 6 x N."""

    modules = ("rotinv", "rotinv.cli")

    def __init__(self, rotinv, inputs):
        self.rotinv = rotinv
        self.inputs = inputs
        self.files: list = []
        self.count = 0

    def prepare(self):
        self.cli = sys.modules["rotinv.cli"]
        self.outdir = self.inputs["outdir"]

    def _argv(self, cfg, path):
        return ["sweep", "--n1", str(cfg["n1"]), "--n2", str(cfg["n2"]),
                "--grid", str(cfg["grid"]), "--out", path]

    def setup(self):
        for i, cfg in enumerate(self.inputs["cycle"]):
            warm = dict(cfg, grid=10)
            if self.cli.main(self._argv(warm, f"{self.outdir}/warmup-{i}.csv")) != 0:
                raise RuntimeError("warm-up sweep failed")

    def _paths(self):
        out = []
        for i, cfg in enumerate(self.inputs["cycle"]):
            out.append((i, cfg, f"{self.outdir}/op{self.count + len(out)}.csv"))
        self.count += len(out)
        self.files.extend((i, p) for i, _, p in out)
        return out

    def round_ops(self, index):
        main = self.cli.main
        return [lambda c=cfg, p=path: main(self._argv(c, p)) for _, cfg, path in self._paths()]

    def traced_ops(self, index, tr: Tracer):
        ri, main = self.rotinv, self.cli.main
        geometry = sys.modules["rotinv.geometry"]

        def op(cfg, path):
            system = ri.SpinPair(cfg["n1"], cfg["n2"])
            tr.call("geometry.bounding_box", geometry.polytope_bounding_box, system)
            _, rows, _ = tr.call("geometry.sweep_rows", geometry.sweep_rows, system, cfg["grid"])
            tr.counts.append((len(rows), cfg["grid"] ** ((cfg["n1"] - 2) // 2)))
            return tr.call("cli.sweep", main, self._argv(cfg, path))
        return [lambda c=cfg, p=path: op(c, p) for _, cfg, path in self._paths()]

    def after_round(self, outputs) -> bool:
        return all(code == 0 for code in outputs)

    def export(self):
        return {"files": self.files}


class VerifyDeep:
    """``rotinv verify --deep --seed S`` in-process, a fresh seed per operation."""

    modules = ("rotinv", "rotinv.cli")

    def __init__(self, rotinv, inputs):
        self.rotinv = rotinv
        self.inputs = inputs
        self.outputs: list = []

    def prepare(self):
        self.cli = sys.modules["rotinv.cli"]
        self.dense = sys.modules["rotinv.dense"]

    def _verify(self, seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["verify", "--deep", "--seed", str(seed)])
        return seed, code, buf.getvalue()

    def setup(self):
        self._verify(self.inputs["setup_seed"])

    def round_ops(self, index):
        seed = self.inputs["seeds"][index % len(self.inputs["seeds"])]
        return [lambda: self._verify(seed)]

    def cold_spans(self, tr: Tracer):
        """Cold dense coupled bases of the oracle systems, before any warm-up."""
        ri, dense = self.rotinv, self.dense

        def bases():
            for dims in self.inputs["oracle_systems"]:
                dense.coupled_basis(ri.SpinPair(*dims))
        tr.call("dense.coupled_basis_cold", bases)

    def traced_ops(self, index, tr: Tracer):
        import numpy as np

        ri, dense = self.rotinv, self.dense
        seed = self.inputs["seeds"][index % len(self.inputs["seeds"])]
        rng = np.random.default_rng(seed)
        segment_ns = self.inputs["segment_ns"]
        t = float(rng.random())

        def segments():
            for n in segment_ns:
                ri.segment_state_4xn(n, t)

        def orthogonality():
            for case in self.inputs["orthogonality_cases"]:
                ri.verify_orthogonality_sum(*case)

        def oracle_state():
            system = ri.SpinPair(*self.inputs["oracle_systems"][-1])
            raw = rng.random(system.n1)
            alpha = ri.AlphaVector(system, raw / (system.norm_weights() @ raw))
            rho = dense.from_alpha(alpha)
            dense.extract_beta(rho, system)
            dense.min_eigenvalue(dense.breuer_phi1(rho, system))
            dense.spectrum(dense.theta1(rho, system))
            dense.spectrum(dense.partial_transpose_1(rho, system))

        def op():
            tr.call("geometry.segment_state", segments)
            tr.call("wigner.orthogonality_sum", orthogonality)
            tr.call("dense.oracle_state", oracle_state)
            return tr.call("cli.verify", self._verify, seed)
        return [op]

    def after_round(self, outputs) -> bool:
        self.outputs.extend(outputs)
        return True

    def export(self):
        return {"runs": self.outputs}


WORKLOADS = {
    "classify_mix": ClassifyMix,
    "existence_cold": ExistenceCold,
    "sweep_export": SweepExport,
    "verify_deep": VerifyDeep,
}


# ---------------------------------------------------------------------------
# negative controls: run once per benchmark run, after all timing
# ---------------------------------------------------------------------------

def negative_controls(rotinv, inputs) -> dict:
    cli = importlib.import_module("rotinv.cli")
    out = {}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--perturb-l"])
    out["perturb_l"] = {"code": code, "text": buf.getvalue()}
    bad = inputs["not_a_state"]
    verdict = rotinv.classify(rotinv.BetaVector(rotinv.SpinPair(*bad["system"]), bad["beta"]))
    out["not_a_state"] = verdict.to_json_dict()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--n1", "5", "--n2", "7", "--grid", "20",
                         "--out", inputs["odd_sweep_out"]])
    out["odd_sweep"] = {"code": code, "stderr": err.getvalue()}
    return out


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

def _probe_once(arrays) -> int:
    t0 = perf_ns()
    total = 0
    for i in range(PROBE_LOOPS):  # interpreter loop
        total += i * i % 7
    objects = [(i, i * 0.5, str(i)) for i in range(PROBE_LOOPS // 5)]  # allocation
    index = {o[2]: o for o in objects}
    total += sum(o[1] for o in index.values())
    matrix, ones = arrays
    for _ in range(PROBE_LOOPS // 25):  # small numpy calls
        (matrix @ ones).min()
    return perf_ns() - t0


def probe() -> int:
    """How fast the machine runs rotinv-like work right now, in ns.

    A fixed mix of the three kinds of work rotinv's operations spend their
    time in: interpreter loops, small-object allocation and small numpy
    calls.  Best of three, which leaves out single interrupts.  Needs numpy,
    so it runs only after ``import rotinv``.
    """
    import numpy as np

    arrays = (np.arange(64.0).reshape(8, 8), np.ones(8))
    return min(_probe_once(arrays) for _ in range(3))


def timed_phase(workload, mode: str, budget_s: float, min_ops: int, tracer):
    """Whole rounds until the budget and the op floor are both met.

    A probe runs before every window of operations (each op, or each round
    for workloads with short ops) and after the last one, so ``probes[k]``
    and ``probes[k + 1]`` bracket window k.  Probes are kept out of the
    phase time.
    """
    single = getattr(workload, "single_round", False)
    per_op = not getattr(workload, "probe_per_round", False)
    latencies: list[int] = []
    probes: list[int] = []
    failed_rounds = 0
    phase_ns = 0
    index = 0
    while True:
        if mode == "trace":
            ops = workload.traced_ops(index, tracer)
        else:
            ops = workload.round_ops(index)
        outputs = []
        for i, fn in enumerate(ops):
            if per_op or i == 0:
                probes.append(probe())
                r0 = perf_ns()
            tracer.op += 1
            t0 = perf_ns()
            try:
                out = fn()
            except Exception as exc:  # an op that raises counts as failed
                out = {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append(perf_ns() - t0)
            outputs.append(out)
            if per_op or i == len(ops) - 1:
                phase_ns += perf_ns() - r0
        if not workload.after_round(outputs):
            failed_rounds += 1
        index += 1
        if single or (phase_ns >= budget_s * 1e9 and len(latencies) >= min_ops):
            probes.append(probe())
            return latencies, probes, phase_ns / 1e9, index, failed_rounds


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    tracer = Tracer()
    result: dict = {}
    cls = WORKLOADS[spec["workload"]]

    t0 = perf()
    for name in cls.modules:
        importlib.import_module(name)
    rotinv = sys.modules["rotinv"]
    workload = cls(rotinv, spec["inputs"])
    t1 = perf()
    workload.prepare()
    t2 = perf()
    if mode == "trace" and hasattr(workload, "cold_spans"):
        workload.cold_spans(tracer)
    workload.setup()
    t3 = perf()
    # set-up is the import plus the warm-up; turning the generated inputs into
    # rotinv objects (t1..t2) is input generation and is left out
    result["setup_s"] = (t1 - t0) + (t3 - t2)
    result["setup_probe_ns"] = probe()
    result["rotinv_file"] = rotinv.__file__

    if mode != "setup":
        latencies, probes, phase_s, rounds, bad_rounds = timed_phase(
            workload, mode, spec["budget_s"], spec["min_ops"], tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(latencies_ns=latencies, probes_ns=probes, phase_s=phase_s, rounds=rounds,
                      rounds_differing=bad_rounds)
        if spec.get("controls"):
            result["controls"] = negative_controls(rotinv, spec["controls"])
        result["outputs"] = workload.export()
        if mode == "trace":
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
