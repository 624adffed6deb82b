"""limdd-sim benchmark: one workload per process, closed loop, one circuit at a time.

Usage, from the repository root (no install needed; the package is imported
from ``src/``):

    python3 bench/run.py --workload stabilizer --seed 1 --seconds 30 --trace 0

Workloads: stabilizer, clifford_t, qmdd (see bench/README.md).  The run
builds every circuit of the workload once through ``circuit.build_engine``
and samples the final state with ``Engine.sample``, then keeps cycling over
the circuits until ``--seconds`` have passed.  Outputs are checked on the
first round and compared against it on every later one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced round instead and reports per-layer metrics.  A
human-readable table goes to stderr; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# the dense oracle must not add BLAS/OpenMP threads; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import SHOTS, WORKLOADS, grid_edges, make_cases  # noqa: E402

SETUP_PROBES = 4   # fresh interpreters timing set-up, plus this process
perf = time.perf_counter


def setup(workload: str, seed: int) -> tuple:
    """Import the package and make the workload's circuits through the
    text round trip.  Returns (seconds, cases, circuits, parse seconds)."""
    t0 = perf()
    import limdd
    from limdd import circuit, states

    if Path(limdd.__file__).resolve().parent != SRC / "limdd":
        raise SystemExit(f"limdd imported from {limdd.__file__}, not from {SRC}")
    cases = make_cases(workload, seed)
    circuits = []
    parse_s = 0.0
    for case in cases:
        if case.family == "w":
            circuits.append(states.w_state_as_circuit(case.n))
            continue
        text = circuit.format_circuit(circuit.Circuit(case.n, case.ops))
        t = perf()
        circuits.append(circuit.parse_circuit(text))
        parse_s += perf() - t
    return perf() - t0, cases, circuits, parse_s


def setup_seconds(args, own_s: float) -> float:
    """Median set-up time over fresh interpreters and this process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = [own_s]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class Workload:
    """Runs a workload's cases and keeps what the metrics and checks need."""

    def __init__(self, workload: str, seed: int, cases: list, circuits: list):
        from limdd import circuit

        self.circuit_mod = circuit
        self.workload, self.seed = workload, seed
        self.cases, self.circuits = cases, circuits
        self.shots = SHOTS[workload]
        self.build_s = [[] for _ in cases]
        self.sample_s = [[] for _ in cases]
        self.first: list = [None] * len(cases)   # (live, store, samples) of round 1
        self.attempted = 0
        self.failed = 0
        self.dense_s = 0.0
        self.store_after: list = [0] * len(cases)   # store nodes after sampling
        self.stats: list = [None] * len(cases)

    def run_case(self, k: int, hook=None) -> None:
        """Build and sample case k, then check it outside the timing: in
        full on its first run, against the first run afterwards.  ``hook``
        runs right after sampling."""
        case, c = self.cases[k], self.circuits[k]
        self.attempted += 1
        try:
            gc.collect()
            t0 = perf()
            eng = self.circuit_mod.build_engine(c, case.mode)
            t1 = perf()
            store = eng.store.node_count()
            rng = random.Random(f"{self.workload}/{self.seed}/{case.name}/shots")
            gc.collect()
            t2 = perf()
            samples = [eng.sample(rng) for _ in range(self.shots)]
            t3 = perf()
            if hook is not None:
                hook()
            live = eng.node_count()
            self.store_after[k] = eng.store.node_count()
            self.stats[k] = eng.stats.as_dict()
            got = (live, store, samples)
            if self.first[k] is None:
                self.verify(case, c, eng, live, samples)
                self.first[k] = got
            elif got != self.first[k]:
                raise RuntimeError(f"{case.name}: output differs from the first round")
        except Exception:
            self.failed += 1
            print(f"FAILED {case.name}:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.build_s[k].append(t1 - t0)
        self.sample_s[k].append(t3 - t2)

    def verify(self, case, c, eng, live: int, samples: list) -> None:
        import checks  # numpy loads here, after the set-up timing

        rng = random.Random(f"{self.workload}/{self.seed}/{case.name}/check")
        checks.check_norm(eng)
        if case.mode == "limdd" and case.family in ("clifford", "ghz", "cluster"):
            checks.check_stabilizer(eng, case.n, c.ops, live, samples)
        if case.family == "ghz":
            checks.check_ghz(eng, case.n, rng)
        elif case.family == "cluster":
            checks.check_cluster(eng, *case.grid, grid_edges(*case.grid), rng)
        elif case.family == "w":
            checks.check_w(eng, case.n, live, samples, rng)
        elif case.family == "clifford_t":
            t = perf()
            reference = self.circuit_mod.dense_simulate(c)
            self.dense_s += perf() - t
            checks.check_dense(eng, reference, samples)

    # -- end-to-end metrics --------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        done = [k for k in range(len(self.cases)) if self.build_s[k]]
        build = [statistics.median(self.build_s[k]) for k in done]
        sample = [statistics.median(self.sample_s[k]) for k in done]
        gates = sum(len(self.circuits[k].ops) for k in done)
        return {
            "setup_s": (setup_s, "s"),
            "gates_per_s": (gates / sum(build) if build else 0.0, "1/s"),
            "circuit_s_p50": (statistics.median(build) if build else 0.0, "s"),
            "shots_per_s": (self.shots * len(done) / sum(sample) if sample else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "live_nodes": (sum(self.first[k][0] for k in done), "count"),
            "store_nodes": (sum(self.first[k][1] for k in done), "count"),
        }


def traced_metrics(wl: Workload, tracer, parse_s: float, untraced_build: float,
                   random_h_adds: list) -> dict:
    from tracing import ROUTES

    calls, self_s, incl = tracer.calls, tracer.self_s, tracer.incl_s
    nodes_made = sum(wl.store_after)
    live = sum(f[0] for f in wl.first if f)
    store = sum(f[1] for f in wl.first if f)
    stats = [s for s in wl.stats if s]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def cache_rate(prefix: str) -> float:
        hits = sum(s[f"{prefix}_cache_hits"] for s in stats)
        return ratio(hits, hits + sum(s[f"{prefix}_cache_misses"] for s in stats))

    gate_ms = sorted(1e3 * t for t in tracer.gate_s)
    m = {
        "pauli.rref.calls": (calls["pauli.rref"], "count"),
        "pauli.rref.self_s": (self_s["pauli.rref"], "s"),
        "pauli.mul.calls": (calls["pauli.mul"], "count"),
        "pauli.conjugate.calls": (calls["pauli.conjugate"], "count"),
        "pauli.string_kernel.calls": (calls["pauli.string_kernel"], "count"),
        "pauli.find_opposite.calls": (calls["pauli.find_opposite"], "count"),
        "diagram.get_stabilizer_gen_set.calls": (calls["diagram.get_stabilizer_gen_set"], "count"),
        "diagram.get_stabilizer_gen_set.self_s": (self_s["diagram.get_stabilizer_gen_set"], "s"),
        "diagram.get_stabilizer_gen_set.hit_rate": (
            1.0 - ratio(nodes_made, calls["diagram.get_stabilizer_gen_set"]), "ratio"),
        "diagram.arg_lex_min.calls": (calls["diagram.arg_lex_min"], "count"),
        "diagram.arg_lex_min.self_s": (self_s["diagram.arg_lex_min"], "s"),
        "diagram.intersect_stabilizer_groups.self_s": (
            self_s["diagram.intersect_stabilizer_groups"], "s"),
        "diagram.root_label.calls": (calls["diagram.root_label"], "count"),
        "diagram.make_edge.calls": (calls["diagram.make_edge"], "count"),
        "diagram.make_edge.self_s": (self_s["diagram.make_edge"], "s"),
        "diagram.make_edge.new_frac": (ratio(nodes_made, calls["diagram.make_edge"]), "ratio"),
        "diagram.store_per_live": (ratio(store, live), "ratio"),
        "diagram.follow.calls": (calls["diagram.follow"], "count"),
    }
    for route in ROUTES:
        m[f"engine.gate.{route}.count"] = (calls[f"engine.gate.{route}"], "count")
        m[f"engine.gate.{route}.s"] = (incl[f"engine.gate.{route}"], "s")
    m.update({
        "engine.gate_ms_p50": (percentile(gate_ms, 0.50), "ms"),
        "engine.gate_ms_p99": (percentile(gate_ms, 0.99), "ms"),
        "engine.add.calls": (calls["engine.add"], "count"),
        "engine.add.self_s": (self_s["engine.add"], "s"),
        "engine.add_cache.hit_rate": (cache_rate("add"), "ratio"),
        "engine.apply_gate.calls": (calls["engine.apply_gate"], "count"),
        "engine.apply_gate.self_s": (self_s["engine.apply_gate"], "s"),
        "engine.apply_cache.hit_rate": (cache_rate("apply"), "ratio"),
        "engine.sample.s": (incl["engine.sample"], "s"),
        "engine.init.s": (incl["engine.init"], "s"),
        "engine.h.adds_per_gate": (
            ratio(sum(a for _, a in tracer.h_adds), len(tracer.h_adds)), "adds/gate"),
        "engine.h.adds_exponent": (adds_exponent(random_h_adds), "slope"),
        "circuit.parse_circuit.s": (parse_s, "s"),
        "circuit.build_engine.s": (incl["circuit.build_engine"], "s"),
        "circuit.dense_simulate.s": (wl.dense_s, "s"),
        "trace.overhead_frac": (
            ratio(incl["circuit.build_engine"] - untraced_build, untraced_build), "ratio"),
    })
    return m


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def adds_exponent(h_adds: list) -> float:
    """Log-log slope of mean Adds per H against n, from (n, adds) pairs;
    0 when there are fewer than two sizes."""
    per_n: dict = {}
    for n, adds in h_adds:
        per_n.setdefault(n, []).append(adds)
    pts = [(math.log(n), math.log(statistics.mean(a))) for n, a in per_n.items()
           if statistics.mean(a) > 0]
    if len(pts) < 2:
        return 0.0
    return statistics.linear_regression([p[0] for p in pts], [p[1] for p in pts]).slope


def report(metrics: dict, wl: Workload, extra: str = "") -> None:
    print(f"workload {wl.workload} seed {wl.seed}: {wl.attempted} circuits run, "
          f"{wl.failed} failed (error_rate {wl.failed / max(wl.attempted, 1)}){extra}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process, one after the other; the result
    line carries each workload's metrics under its name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        res = json.loads(out.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "limdd" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    own_setup_s, cases, circuits, parse_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(own_setup_s)
        return 0

    wl = Workload(args.workload, args.seed, cases, circuits)
    if args.trace:
        from tracing import Tracer

        for k in range(len(cases)):
            wl.run_case(k)
        untraced_build = sum(b[0] for b in wl.build_s if b)
        tracer = Tracer()
        random_h_adds = []   # H gates of the random Clifford circuits
        for k, case in enumerate(cases):
            mark = len(tracer.h_adds)
            tracer.install()
            wl.run_case(k, hook=tracer.uninstall)
            tracer.uninstall()
            if case.family == "clifford":
                random_h_adds += tracer.h_adds[mark:]
        report(traced_metrics(wl, tracer, parse_s, untraced_build, random_h_adds), wl)
        return 0

    setup_s = setup_seconds(args, own_setup_s)
    deadline = perf() + args.seconds
    i = 0
    while i < len(cases) or perf() < deadline:
        wl.run_case(i % len(cases))
        i += 1
    rounds = f", circuit_s_p50 over {len(cases)} circuits from {i} runs"
    report(wl.end_to_end(setup_s), wl, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
