"""Acceptance suite: end-to-end checks of the package's headline behaviors.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE <k> <name>: PASS/FAIL (<detail>)`` line (visible with ``pytest -s``,
or in captured output on failure).  Tolerances are stated inline; the whole
file is sized to finish well inside a 15 minute laptop budget.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import limdd.pauli as pl
from limdd.circuit import build_engine
from limdd.diagram import DiagramStore, Edge
from limdd.engine import Engine
from limdd.pauli import GeneratorSet, PauliLim, is_zero, mul
from limdd.states import (
    Graph,
    cluster_state,
    coset_state,
    Coset,
    graph_state,
    w_state_as_circuit,
)
from limdd.stabrank import search_with_restarts

from oracles import (
    cx_matrix,
    cz_matrix,
    echelon_ok,
    enumerate_group,
    gf2_rank,
    group_keys,
    op_on_qubit,
    random_clifford_circuit,
    random_stabilizer_genset,
)

_MATS = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
}

_1Q = ("h", "s", "sdg", "t", "x", "y", "z")
_DIAGONAL = {"s", "sdg", "t", "z", "cz"}


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


def _random_ops(n: int, depth: int, rng, clifford_only: bool = False) -> list:
    names = ("h", "s", "x", "z", "cx", "cz") if clifford_only else _1Q + ("cx", "cz")
    ops = []
    for _ in range(depth):
        name = str(rng.choice(names))
        if name in ("cx", "cz"):
            if n < 2:
                continue
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            ops.append((name, int(a), int(b)))
        else:
            ops.append((name, int(rng.integers(1, n + 1))))
    return ops


def _op_matrix(n: int, op) -> np.ndarray:
    if op[0] == "cx":
        return cx_matrix(n, op[1], op[2])
    if op[0] == "cz":
        return cz_matrix(n, op[1], op[2])
    return op_on_qubit(n, op[1], _MATS[op[0]])


def _fresh_root(eng: Engine) -> None:
    """Point the engine back at |0...0> without discarding its store."""
    e = Edge(pl.identity(0), eng.store.leaf)
    for _ in range(eng.n):
        e = eng.store.make_edge(e, Edge(pl.zero(e.target.index), e.target))
    eng.root = e


def _reachable_nodes(eng: Engine):
    seen = {}
    stack = [eng.root.target]
    while stack:
        v = stack.pop()
        if v.nid in seen or v.index == 0:
            continue
        seen[v.nid] = v
        stack.append(v.low.target)
        stack.append(v.high.target)
    return list(seen.values())


def _ghz_engine(n: int) -> Engine:
    eng = Engine(n)
    eng.run_gate("h", n)
    for k in range(n, 1, -1):
        eng.run_gate("cx", k, k - 1)
    return eng


# -- 1: amplitudes against the dense route, after every gate ----------------


def test_oracle_equivalence_random_clifford_t():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        depth = int(rng.integers(10, 41))
        eng = Engine(n)
        vec = np.zeros(2**n, dtype=complex)
        vec[0] = 1.0
        for op in _random_ops(n, depth, rng):
            eng.run_gate(*op)
            vec = _op_matrix(n, op) @ vec
            err = float(np.max(np.abs(eng.to_dense() - vec)))
            worst = max(worst, err)
    _verdict(
        1,
        "oracle equivalence",
        worst < 1e-8,
        f"200 circuits, n<=8, depth<=40, worst amplitude error {worst:.3g}",
    )


# -- 2: Clifford circuits stay towers with restricted high scalars ----------


def test_stabilizer_towers_node_count_and_scalars():
    rng = np.random.default_rng(23)
    allowed = (1.0, -1.0, 1j, -1j)
    checked = 0
    ok = True
    detail = ""
    for _ in range(100):
        n = int(rng.integers(4, 13))
        eng = Engine(n)
        for op in random_clifford_circuit(n, rng, 3 * n):
            eng.run_gate(*op)
            nodes = _reachable_nodes(eng)
            if len(nodes) != n:
                ok, detail = False, f"{len(nodes)} nodes above leaf, wanted {n}"
                break
            for v in nodes:
                lab = v.high.label
                if is_zero(lab):
                    continue
                if min(abs(lab.scalar - a) for a in allowed) > 1e-9:
                    ok, detail = False, f"high scalar {lab.scalar}"
                    break
            if not ok:
                break
            checked += 1
        if not ok:
            break
    if ok:
        detail = f"100 circuits n=4..12, {checked} intermediate towers verified"
    _verdict(2, "stabilizer towers", ok, detail)


# -- 3: cluster-state node counts, Pauli labels vs identity labels ----------


def test_cluster_state_node_count_separation():
    lim_counts = {}
    qmdd_counts = {}
    for k in range(2, 6):
        lim_counts[k] = cluster_state(k, k).node_count() + 1  # include leaf
        qmdd_counts[k] = cluster_state(k, k, mode="qmdd").node_count() + 1
    exact = all(lim_counts[k] == k * k + 1 for k in range(2, 6))
    increasing = all(qmdd_counts[k] > qmdd_counts[k - 1] for k in range(3, 6))
    separated = qmdd_counts[4] >= 2 * lim_counts[4]
    _verdict(
        3,
        "cluster separation",
        exact and increasing and separated,
        f"limdd {lim_counts} qmdd {qmdd_counts}",
    )


# -- 4: Hadamard on a stabilizer state, Add call count and wall clock -------


def test_hadamard_on_stabilizer_add_cost():
    rng = np.random.default_rng(37)
    worst_ratio = 0.0
    times = {}
    for n in range(4, 13):
        total = 0.0
        for _ in range(40):
            eng = Engine(n)
            for op in random_clifford_circuit(n, rng, 3 * n):
                eng.run_gate(*op)
            q = int(rng.integers(1, n + 1))
            before = eng.stats.add_cache_misses
            t0 = time.perf_counter()
            eng.run_gate("h", q)
            total += time.perf_counter() - t0
            distinct = eng.stats.add_cache_misses - before
            worst_ratio = max(worst_ratio, distinct / n)
            assert distinct <= 5 * n, f"H needed {distinct} distinct Adds at n={n}"
        times[n] = total
    ns = np.array(sorted(times))
    slope = float(np.polyfit(np.log(ns), np.log([times[n] for n in ns]), 1)[0])
    _verdict(
        4,
        "hadamard cost",
        worst_ratio <= 5.0 and slope < 2.0,
        f"worst distinct-Add ratio {worst_ratio:.2f}n (bound 5n), "
        f"wall-clock growth exponent {slope:.2f}",
    )


# -- 5: W states stay small and give the right amplitudes -------------------


def test_w_state_peak_size_and_amplitudes():
    worst_amp = 0.0
    peaks = {}
    ok = True
    for n in (4, 8, 16, 32):
        eng = build_engine(w_state_as_circuit(n), "limdd")
        peaks[n] = eng.stats.peak_nodes
        ok = ok and peaks[n] <= 4 * n * n
        want = 1.0 / math.sqrt(n)
        for q in range(n):
            bits = "0" * q + "1" + "0" * (n - 1 - q)
            worst_amp = max(worst_amp, abs(eng.amplitude(bits) - want))
    _verdict(
        5,
        "w-state efficiency",
        ok and worst_amp < 1e-9,
        f"peaks {peaks} (bounds 4n^2), worst weight-1 amplitude error {worst_amp:.3g}",
    )


# -- 6: equivalent constructions land on the same node ----------------------


def _assert_same_state(eng: Engine, e: Edge, f: Edge) -> None:
    """Exact state equality: shared node plus equal canonical labels.

    Raw root labels may differ by a stabilizer of the target, so compare
    the canonical representatives instead."""
    a = eng.store.root_label(e)
    b = eng.store.root_label(f)
    assert (a.x, a.z) == (b.x, b.z)
    assert abs(a.scalar - b.scalar) < 1e-9


def _commutes(a, b) -> bool:
    if set(a[1:]).isdisjoint(b[1:]):
        return True
    return a[0] in _DIAGONAL and b[0] in _DIAGONAL


def _swapped_variant(ops: list, rng) -> list | None:
    """Reorder via adjacent commuting transpositions; None if nothing moved."""
    out = list(ops)
    moved = 0
    for _ in range(30):
        i = int(rng.integers(0, len(out) - 1))
        if _commutes(out[i], out[i + 1]):
            out[i], out[i + 1] = out[i + 1], out[i]
            moved += 1
    for i, op in enumerate(out):
        if op[0] == "cz" and rng.integers(0, 2):
            out[i] = ("cz", op[2], op[1])
    return out if (moved and out != ops) else None


def test_canonicity_equivalent_constructions():
    rng = np.random.default_rng(41)
    pairs = 0
    # permuted gate orders on Clifford+T circuits
    while pairs < 500:
        n = int(rng.integers(2, 9))
        ops = _random_ops(n, int(rng.integers(12, 25)), rng)
        variant = _swapped_variant(ops, rng)
        if variant is None:
            continue
        eng = Engine(n)
        for op in ops:
            eng.run_gate(*op)
        first = eng.root
        _fresh_root(eng)
        for op in variant:
            eng.run_gate(*op)
        assert first.target.nid == eng.root.target.nid, f"pair {pairs}: {ops}"
        _assert_same_state(eng, first, eng.root)
        pairs += 1
    # same Clifford circuit with a stabilizer of the midpoint state spliced in
    while pairs < 1000:
        n = int(rng.integers(2, 9))
        ops = random_clifford_circuit(n, rng, int(rng.integers(8, 21)))
        cut = int(rng.integers(1, len(ops)))
        z = int(rng.integers(1, 1 << n))
        g = pl.conjugate(PauliLim(n, 0, z, 1.0), ops[:cut])
        eng = Engine(n)
        for op in ops:
            eng.run_gate(*op)
        first = eng.root
        _fresh_root(eng)
        for op in ops[:cut]:
            eng.run_gate(*op)
        eng.root = Edge(mul(g, eng.root.label), eng.root.target)
        for op in ops[cut:]:
            eng.run_gate(*op)
        assert first.target.nid == eng.root.target.nid, f"pair {pairs}: {ops}"
        _assert_same_state(eng, first, eng.root)
        pairs += 1
    _verdict(
        6,
        "canonicity",
        pairs == 1000,
        "1000 equivalent-construction pairs share the root node id "
        "(500 commuting reorders, 500 stabilizer splices)",
    )


# -- 7: measurement probabilities are normalized; GHZ sampling is fair ------


def _probability_battery(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        eng = Engine(n)
        for op in _random_ops(n, 30, rng):
            eng.run_gate(*op)
        yield eng
    yield _ghz_engine(10)
    yield build_engine(w_state_as_circuit(8), "limdd")
    yield cluster_state(3, 3)
    for _ in range(2):
        edges = set()
        for _ in range(10):
            a, b = rng.choice(np.arange(7), size=2, replace=False)
            edges.add((int(a), int(b)))
        yield graph_state(Graph(7, frozenset(edges)))
    yield coset_state(Coset(4, ("1100", "0011"), "0101"))


def test_measurement_probabilities_and_ghz_sampling():
    rng = np.random.default_rng(53)
    worst_sum = 0.0
    states = 0
    for eng in _probability_battery(rng):
        states += 1
        for k in range(1, eng.n + 1):
            p0 = eng.measurement_probability(eng.root, k, 0)
            p1 = eng.measurement_probability(eng.root, k, 1)
            worst_sum = max(worst_sum, abs(p0 + p1 - 1.0))
    ghz = _ghz_engine(10)
    shots = 10_000
    counts = {"0" * 10: 0, "1" * 10: 0}
    for _ in range(shots):
        outcome = ghz.sample(rng)
        assert outcome in counts, f"GHZ produced {outcome}"
        counts[outcome] += 1
    sigma = math.sqrt(shots * 0.25)
    dev = max(abs(c - shots / 2) for c in counts.values())
    _verdict(
        7,
        "measurement",
        worst_sum < 1e-9 and dev <= 5 * sigma,
        f"{states} states, worst p0+p1 deviation {worst_sum:.3g}; "
        f"GHZ counts {tuple(counts.values())}, |dev| {dev:.0f} <= 5 sigma {5 * sigma:.0f}",
    )


# -- 8: annealing search reproduces the small rank table --------------------


def test_stabilizer_rank_search_table():
    table = [(2, 1, 1), (3, 1, 2), (4, 1, 2), (4, 2, 2), (5, 2, 2), (6, 3, 2)]
    results = {}
    ok = True
    for n, w, chi in table:
        res = search_with_restarts(n, w, chi, restarts=10, seed=101)
        results[(n, w, chi)] = (res.success, res.residual, res.steps_used)
        ok = ok and res.success and res.residual < 1e-6
    detail = ", ".join(
        f"(n={n},w={w},chi={c}): {'ok' if s else 'FAIL'} res={r:.1e} steps={st}"
        for (n, w, c), (s, r, st) in results.items()
    )
    _verdict(8, "stabilizer rank table", ok, detail)


# -- 9: Pauli-group toolkit against exhaustive enumeration ------------------


def _random_diagonal_genset(n: int, rng) -> GeneratorSet:
    k = int(rng.integers(0, n + 1))
    masks: list[int] = []
    gens: list[PauliLim] = []
    guard = 0
    while len(gens) < k and guard < 200:
        guard += 1
        z = int(rng.integers(1, 1 << n))
        if gf2_rank(masks + [z]) != len(masks) + 1:
            continue
        masks.append(z)
        gens.append(PauliLim(n, 0, z, -1.0 if rng.integers(0, 2) else 1.0))
    return GeneratorSet(n, gens)


def test_pauli_toolkit_vs_enumeration():
    # membership and division are arg_lex_min against the empty group
    rng = np.random.default_rng(67)
    store = DiagramStore()
    cases = 0
    for _ in range(200):  # row reduction preserves the group, canonical shape
        n = int(rng.integers(1, 4))
        g = random_stabilizer_genset(n, rng)
        red = pl.rref(g)
        assert group_keys(red) == group_keys(g)
        assert echelon_ok(red)
        assert len(red.gens) == int(math.log2(len(enumerate_group(g)) or 1))
        cases += 1
    for _ in range(150):  # membership agrees with brute-force lookup
        n = int(rng.integers(1, 4))
        g = random_stabilizer_genset(n, rng)
        keys = group_keys(g)
        if rng.integers(0, 2):
            a = enumerate_group(g)[int(rng.integers(0, 1 << len(g.gens)))]
        else:
            a = PauliLim(
                n,
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 1 << n)),
                -1.0 if rng.integers(0, 2) else 1.0,
            )
        truth = (a.x, a.z, 1 if a.scalar.real > 0 else -1) in keys
        _, _, rem = store.arg_lex_min(g, store.empty_set(n), a)
        assert (rem.is_identity_string() and abs(rem.scalar - 1.0) <= 1e-12) == truth
        cases += 1
    for _ in range(100):  # diagonal-group intersection equals set intersection
        n = int(rng.integers(1, 4))
        a = _random_diagonal_genset(n, rng)
        b = _random_diagonal_genset(n, rng)
        inter = store.intersect_stabilizer_groups(a, b)
        assert group_keys(inter) == group_keys(a) & group_keys(b)
        cases += 1
    for _ in range(100):  # division: quotient in the group, remainder minimal
        n = int(rng.integers(1, 4))
        g = random_stabilizer_genset(n, rng)
        a = PauliLim(
            n,
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 1 << n)),
            -1.0 if rng.integers(0, 2) else 1.0,
        )
        h, _, rem = store.arg_lex_min(g, store.empty_set(n), a)
        keys = group_keys(g)
        assert (h.x, h.z, 1 if h.scalar.real > 0 else -1) in keys
        prod = mul(a, h)
        assert (prod.x, prod.z) == (rem.x, rem.z)
        assert abs(prod.scalar - rem.scalar) < 1e-12
        assert all(
            mul(a, e).string_key() >= rem.string_key() for e in enumerate_group(g)
        )
        cases += 1
    _verdict(
        9,
        "pauli toolkit",
        cases >= 500,
        f"{cases} enumeration-checked cases (rref, arg_lex_min membership/division, "
        "diagonal intersect_stabilizer_groups), n<=3",
    )
