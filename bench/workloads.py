"""Seeded inputs for the three benchmark workloads.

Every circuit is produced in the user convention of ``limdd.circuit``
(0-based qubits, qubit 0 on top) as a plain op list; ``run.py`` turns it
into a ``Circuit`` through the text round trip.  W-state cases carry no ops:
their circuits come from ``states.w_state_as_circuit`` (``mcx`` has no text
form).  The same ``seed`` always gives the same cases, in the same order.

Random circuits have a fixed gate composition (exact counts per gate kind,
shuffled), so the seed moves only which qubits and which order.  The
Clifford+T circuits also spread each gate kind evenly over the qubits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# random Clifford circuits on the stabilizer workload: circuits per qubit
# count and gates per qubit.  Most are at n = 32, so the median circuit is
# one of many alike; n = 24 and 48 span the fit of Adds per H against n.
CLIFFORD_COUNTS = {24: 4, 32: 24, 48: 2}
CLIFFORD_GATES_PER_QUBIT = 3
CLIFFORD_MIX = {"h": 6, "s": 2, "sdg": 1, "x": 1, "y": 1, "z": 1, "cx": 6, "cz": 2}

GHZ_DOWN_N = 64
GHZ_UP_N = 32
CLUSTER_LIMDD = (6, 6)

# random Clifford+T circuits shared by the clifford_t and qmdd workloads
CT_N = 8
CT_CIRCUITS = 8
CT_GATES = 150
CT_MIX = {"h": 5, "s": 1, "sdg": 1, "x": 1, "z": 1, "t": 5, "cx": 4, "cz": 2}

W_NS = (16, 32)
CLUSTER_QMDD = (5, 5)

WORKLOADS = ("stabilizer", "clifford_t", "qmdd")
SHOTS = {"stabilizer": 16, "clifford_t": 512, "qmdd": 512}


@dataclass(frozen=True)
class Case:
    """One circuit of a workload.

    ``family`` selects the output checks: "clifford" (tableau), "ghz",
    "cluster" (with ``grid``), "w" and "clifford_t" (dense oracle)."""

    name: str
    family: str
    n: int
    ops: tuple
    mode: str
    grid: tuple = ()


def _mixed_circuit(rng: random.Random, n: int, gates: int, mix: dict,
                   balanced: bool = False) -> tuple:
    """``gates`` gates in the proportions of ``mix``, shuffled.  With
    ``balanced`` each gate kind (and each operand position of a two-qubit
    kind) walks through shuffled permutations of the qubits instead of
    drawing them independently."""
    total = sum(mix.values())
    kinds = []
    for kind, weight in mix.items():
        kinds += [kind] * round(gates * weight / total)
    rng.shuffle(kinds)
    streams: dict = {}

    def qubit(stream: str) -> int:
        if not balanced:
            return rng.randrange(n)
        pending = streams.setdefault(stream, [])
        if not pending:
            pending.extend(rng.sample(range(n), n))
        return pending.pop()

    ops = []
    for kind in kinds:
        if kind in ("cx", "cz"):
            a = qubit(kind)
            b = qubit(kind + "/2")
            while b == a:
                b = rng.randrange(n)
            ops.append((kind, (a, b)))
        else:
            ops.append((kind, (qubit(kind),)))
    return tuple(ops)


def ghz_ops(n: int, upward: bool) -> tuple:
    """GHZ preparation. Downward: H on qubit 0, CX chain toward qubit n-1
    (control above target in the diagram).  Upward: the mirror image, so
    every CX has its target above its control."""
    order = list(range(n - 1, -1, -1)) if upward else list(range(n))
    ops = [("h", (order[0],))]
    ops += [("cx", (a, b)) for a, b in zip(order, order[1:])]
    return tuple(ops)


def grid_edges(rows: int, cols: int) -> list:
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return edges


def cluster_ops(rows: int, cols: int) -> tuple:
    n = rows * cols
    return tuple([("h", (q,)) for q in range(n)] + [("cz", e) for e in grid_edges(rows, cols)])


def ct_opening(n: int) -> tuple:
    """Fixed layers (H, T, CX ladder down, H, T, CX ladder up, H) that take
    |0...0> to a saturated state (2^n - 1 live nodes), so the random part
    of every Clifford+T circuit runs at full size."""
    ops = []
    for ladder in ((q, q + 1) for q in range(n - 1)), ((q + 1, q) for q in range(n - 1)):
        ops += [("h", (q,)) for q in range(n)] + [("t", (q,)) for q in range(n)]
        ops += [("cx", pair) for pair in ladder]
    ops += [("h", (q,)) for q in range(n)]
    return tuple(ops)


def clifford_t_circuits(seed: int) -> list:
    rng = random.Random(f"clifford_t/{seed}")
    return [ct_opening(CT_N) + _mixed_circuit(rng, CT_N, CT_GATES, CT_MIX, balanced=True)
            for _ in range(CT_CIRCUITS)]


def make_cases(workload: str, seed: int) -> list:
    """The ordered case list of one workload."""
    if workload == "stabilizer":
        rng = random.Random(f"stabilizer/{seed}")
        cases = [
            Case(f"clifford_n{n}_{i}", "clifford", n,
                 _mixed_circuit(rng, n, CLIFFORD_GATES_PER_QUBIT * n, CLIFFORD_MIX), "limdd")
            for n, count in CLIFFORD_COUNTS.items()
            for i in range(count)
        ]
        cases.append(Case(f"ghz_down_n{GHZ_DOWN_N}", "ghz", GHZ_DOWN_N,
                          ghz_ops(GHZ_DOWN_N, upward=False), "limdd"))
        cases.append(Case(f"ghz_up_n{GHZ_UP_N}", "ghz", GHZ_UP_N,
                          ghz_ops(GHZ_UP_N, upward=True), "limdd"))
        r, c = CLUSTER_LIMDD
        cases.append(Case(f"cluster_{r}x{c}", "cluster", r * c, cluster_ops(r, c), "limdd", (r, c)))
        return cases
    if workload in ("clifford_t", "qmdd"):
        mode = "limdd" if workload == "clifford_t" else "qmdd"
        cases = [
            Case(f"ct_n{CT_N}_{i}", "clifford_t", CT_N, ops, mode)
            for i, ops in enumerate(clifford_t_circuits(seed))
        ]
        if workload == "clifford_t":
            cases += [Case(f"w_n{n}", "w", n, (), mode) for n in W_NS]
        else:
            r, c = CLUSTER_QMDD
            cases.append(Case(f"cluster_{r}x{c}", "cluster", r * c, cluster_ops(r, c), mode, (r, c)))
        return cases
    raise ValueError(f"unknown workload {workload!r}")
