"""Simulation engine: gate routes, caches, measurement, gate diagrams."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

import limdd.pauli as pl
from limdd.circuit import GATE_ARITY, Circuit, build_engine, dense_simulate
from limdd.diagram import Edge, scale_edge
from limdd.engine import Engine, EngineError
from oracles import (
    H2,
    S2,
    T2,
    X2,
    Y2,
    Z2,
    cx_matrix,
    cz_matrix,
    edge_from_dense,
    op_on_qubit,
    random_clifford_circuit,
)

GATES_1Q = ("h", "s", "sdg", "t", "x", "y", "z")
MATS_1Q = {
    "h": H2,
    "s": S2,
    "sdg": S2.conj().T,
    "t": T2,
    "tdg": T2.conj().T,
    "x": X2,
    "y": Y2,
    "z": Z2,
}


def dense_gate(name, qubits, n):
    if name in MATS_1Q:
        return op_on_qubit(n, qubits[0], MATS_1Q[name])
    if name == "cx":
        return cx_matrix(n, qubits[0], qubits[1])
    if name == "cz":
        return cz_matrix(n, qubits[0], qubits[1])
    raise ValueError(name)


def random_ops(rng, n, depth, two_qubit=0.4):
    ops = []
    for _ in range(depth):
        if n >= 2 and rng.random() < two_qubit:
            name = "cx" if rng.random() < 0.5 else "cz"
            q = rng.choice(n, size=2, replace=False) + 1
            ops.append((name, (int(q[0]), int(q[1]))))
        else:
            name = GATES_1Q[int(rng.integers(0, len(GATES_1Q)))]
            ops.append((name, (int(rng.integers(1, n + 1)),)))
    return ops


def ghz_engine(n, mode="limdd"):
    eng = Engine(n, mode=mode)
    eng.run_gate("h", n)
    for k in range(n, 1, -1):
        eng.run_gate("cx", k, k - 1)
    return eng


def w_state_edge(eng, n):
    vec = np.zeros(1 << n, dtype=complex)
    for k in range(n):
        vec[1 << k] = 1.0 / math.sqrt(n)
    return edge_from_dense(eng.store, vec)


def test_initial_state_is_all_zeros():
    eng = Engine(3)
    vec = eng.to_dense()
    assert vec[0] == 1.0 and not np.any(vec[1:])
    assert eng.node_count() == 3
    assert eng.amplitude("000") == 1.0


def test_bell_state_every_route():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    down = Engine(2)
    down.run_gate("h", 2)
    down.run_gate("cx", 2, 1)
    up = Engine(2)
    up.run_gate("h", 1)
    up.run_gate("cx", 1, 2)
    qm = Engine(2, mode="qmdd")
    qm.run_gate("h", 2)
    qm.run_gate("cx", 2, 1)
    for eng in (down, up, qm):
        assert np.allclose(eng.to_dense(), bell, atol=1e-12)


@pytest.mark.parametrize("mode", ["limdd", "qmdd"])
def test_random_circuits_match_dense(mode):
    rng = np.random.default_rng(20 if mode == "limdd" else 21)
    for _ in range(12):
        n = int(rng.integers(1, 6))
        eng = Engine(n, mode=mode, debug=True)
        ref = np.zeros(1 << n, dtype=complex)
        ref[0] = 1.0
        for name, qs in random_ops(rng, n, 25):
            eng.run_gate(name, *qs)
            ref = dense_gate(name, qs, n) @ ref
            assert np.max(np.abs(eng.to_dense() - ref)) < 1e-8


def test_clifford_t_circuits_agree_across_backends():
    rng = np.random.default_rng(35)
    names = ("h", "s", "sdg", "t", "tdg", "x", "y", "z")
    for n in range(1, 9):
        ops = []
        for _ in range(30):
            if n >= 2 and rng.random() < 0.35:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(("cx" if rng.random() < 0.5 else "cz", (int(a), int(b))))
            else:
                ops.append((names[int(rng.integers(0, len(names)))], (int(rng.integers(0, n)),)))
        c = Circuit(n, tuple(ops))
        ref = np.zeros(1 << n, dtype=complex)
        ref[0] = 1.0
        for name, qs in ops:
            ref = dense_gate(name, tuple(n - q for q in qs), n) @ ref
        limdd = build_engine(c, "limdd", debug=True)
        assert limdd.stats.apply_calls == 0
        for vec in (
            limdd.to_dense(),
            build_engine(c, "qmdd").to_dense(),
            dense_simulate(c),
        ):
            assert np.max(np.abs(vec - ref)) < 1e-10


def test_cache_disabled_matches_enabled():
    rng = np.random.default_rng(22)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        cached = Engine(n, use_caches=True)
        plain = Engine(n, use_caches=False)
        for name, qs in random_ops(rng, n, 30):
            cached.run_gate(name, *qs)
            plain.run_gate(name, *qs)
            assert np.max(np.abs(cached.to_dense() - plain.to_dense())) < 1e-10
    assert plain.stats.apply_cache_hits == 0
    assert plain.stats.add_cache_hits == 0


def test_apply_cache_hits_across_phase_factors():
    # a query differing from a stored entry only by a label scalar must hit
    eng = Engine(2, mode="qmdd")
    u = eng.gate_to_dd("x", (1,))
    base = eng.root
    first = eng.apply_gate(u, base)
    hits = eng.stats.apply_cache_hits
    second = eng.apply_gate(u, scale_edge(0.5j, base))
    assert eng.stats.apply_cache_hits == hits + 1
    want = 0.5j * eng.store.to_dense(first)
    assert np.allclose(eng.store.to_dense(second), want, atol=1e-12)


def test_add_cache_commutes():
    eng = Engine(3)
    rng = np.random.default_rng(23)
    e = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
    f = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
    r1 = eng.add(e, f)
    hits = eng.stats.add_cache_hits
    r2 = eng.add(f, e)
    assert eng.stats.add_cache_hits > hits
    assert np.allclose(eng.store.to_dense(r1), eng.store.to_dense(r2), atol=1e-12)


def _operand(eng, rng, xs=0):
    """A random edge on all qubits: a dense, sparse, stabilizer or zero
    vector under a random Pauli label whose X block includes ``xs``."""
    m = eng.n
    kind = int(rng.integers(0, 4))
    if kind == 3:
        return Edge(pl.zero(m), eng.root.target)
    if kind == 2:
        src = Engine(m)
        for gate in random_clifford_circuit(m, rng, 4 * m):
            src.run_gate(*gate)
        vec = src.to_dense()
    else:
        vec = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        if kind == 1:
            vec[rng.random(1 << m) < 0.6] = 0.0
            vec[int(rng.integers(0, 1 << m))] = 1.0
    e = edge_from_dense(eng.store, vec)
    x = int(rng.integers(0, 1 << m)) | xs
    z = int(rng.integers(0, 1 << m))
    p = pl.PauliLim(m, x, z, (1, 1j, -1, -1j)[int(rng.integers(0, 4))])
    return Edge(pl.mul(p, e.label), e.target)


def _same_state(eng, got, want):
    vg, vw = eng.store.to_dense(got), eng.store.to_dense(want)
    assert np.allclose(vg, vw, atol=1e-10)
    assert pl.is_zero(got.label) == pl.is_zero(want.label)
    if not pl.is_zero(want.label):
        assert got.target is want.target


@pytest.mark.parametrize("use_caches", [True, False])
def test_butterfly_matches_two_adds(use_caches):
    rng = np.random.default_rng(91)
    m = 4
    eng = Engine(m, use_caches=use_caches)
    top = 1 << (m - 1)
    for trial in range(60):
        e = _operand(eng, rng, xs=top if trial % 2 else 0)
        if trial % 5 == 0 and not pl.is_zero(e.label):
            # equal targets, another label
            f = Edge(pl.mul(pl.PauliLim(m, top, 1, 0.5j), e.label), e.target)
        else:
            f = _operand(eng, rng, xs=top if trial % 3 else 0)
        s, d = eng._butterfly(e, f)
        _same_state(eng, s, eng.add(e, f))
        _same_state(eng, d, eng.add(e, scale_edge(-1.0, f)))
    if not use_caches:
        assert eng.stats.add_cache_hits == 0


def test_butterfly_shares_one_entry_for_both_signs():
    rng = np.random.default_rng(92)
    eng = Engine(3)
    for _ in range(10):
        e = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
        f = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
        s, d = eng._butterfly(e, f)
        hits = eng.stats.add_cache_hits
        s2, d2 = eng._butterfly(e, scale_edge(-1.0, f))
        assert eng.stats.add_cache_hits == hits + 2
        _same_state(eng, s2, d)
        _same_state(eng, d2, s)


@pytest.mark.parametrize("use_caches", [True, False])
def test_cross_matches_projections_and_add(use_caches):
    rng = np.random.default_rng(93)
    m = 4
    eng = Engine(m, use_caches=use_caches)
    for trial in range(80):
        c = int(rng.integers(1, m + 1)) if trial % 4 else m
        flip = 1 << (c - 1)
        e = _operand(eng, rng, xs=flip if trial % 2 else 0)
        f = _operand(eng, rng, xs=flip if trial % 3 else 0)
        if trial % 7 == 0 and not pl.is_zero(e.label):
            f = Edge(pl.mul(pl.PauliLim(m, flip, 0, -1), e.label), e.target)
        # X on qubit c of both operands keeps the pair's key and swaps the
        # projections, so the second call must not reuse the first entry
        xc = pl.single(m, c, "X")
        flipped = tuple(Edge(pl.mul(xc, g.label), g.target) for g in (e, f))
        for a, b in ((e, f), flipped):
            got = eng._cross(a, b, c)
            want = eng.add(eng._project(a, c, 0), eng._project(b, c, 1))
            _same_state(eng, got, want)


def test_upward_cx_on_clifford_t_circuits_matches_dense():
    rng = np.random.default_rng(94)
    names = ("h", "s", "t", "tdg", "x", "y")
    for n in range(2, 11):
        ops = []
        for _ in range(6 * n):
            if rng.random() < 0.45:
                lo, hi = sorted(int(q) for q in rng.choice(n, size=2, replace=False))
                # user qubit 0 is the top, so control below target is upward
                ops.append(("cx", (hi, lo)) if rng.random() < 0.75 else ("cz", (lo, hi)))
            else:
                ops.append((names[int(rng.integers(0, len(names)))], (int(rng.integers(0, n)),)))
        c = Circuit(n, tuple(ops))
        eng = build_engine(c, "limdd", debug=True)
        assert np.max(np.abs(eng.to_dense() - dense_simulate(c))) < 1e-8


def test_squared_norm_values():
    eng = Engine(1)
    plus_unnormalized = edge_from_dense(eng.store, np.array([1.0, 1.0]))
    assert eng.squared_norm(plus_unnormalized) == pytest.approx(2.0)

    eng3 = Engine(3)
    rng = np.random.default_rng(24)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    e = edge_from_dense(eng3.store, vec)
    base = eng3.squared_norm(e)
    assert base == pytest.approx(np.vdot(vec, vec).real, rel=1e-10)
    p = pl.PauliLim(3, 0b101, 0b011, 3j)
    scaled = Edge(pl.mul(p, e.label), e.target)
    assert eng3.squared_norm(scaled) == pytest.approx(9.0 * base, rel=1e-10)


def test_clifford_circuits_stay_towers():
    rng = np.random.default_rng(25)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        eng = Engine(n)
        for gate in random_clifford_circuit(n, rng, 30):
            eng.run_gate(*gate)
            assert eng.node_count() == n
            v = eng.root.target
            while v.index > 0:
                lbl = v.high.label
                if not pl.is_zero(lbl):
                    assert min(abs(lbl.scalar - u) for u in (1, 1j, -1, -1j)) < 1e-9
                v = v.low.target


def test_hadamard_add_call_bound():
    rng = np.random.default_rng(26)
    for _ in range(12):
        n = int(rng.integers(2, 13))
        eng = Engine(n)
        for gate in random_clifford_circuit(n, rng, 3 * n):
            eng.run_gate(*gate)
        before = eng.stats.add_cache_misses
        eng.run_gate("h", int(rng.integers(1, n + 1)))
        assert eng.stats.add_cache_misses - before <= 5 * n


def test_hadamard_add_call_bound_at_larger_n():
    # the same 5n bound on every H of random Clifford circuits at sizes
    # past acceptance 4's n <= 12 (measured worst: about 2n)
    rng = np.random.default_rng(83)
    for n in (16, 32, 48):
        eng = Engine(n)
        hs = 0
        for gate in random_clifford_circuit(n, rng, 3 * n):
            before = eng.stats.add_cache_misses
            eng.run_gate(*gate)
            if gate[0] == "h":
                hs += 1
                assert eng.stats.add_cache_misses - before <= 5 * n, (n, gate)
        assert hs > n // 2


def test_measurement_probability_plus_state():
    eng = Engine(1)
    eng.run_gate("h", 1)
    assert eng.measurement_probability(eng.root, 1, 0) == pytest.approx(0.5)
    assert eng.measurement_probability(eng.root, 1, 1) == pytest.approx(0.5)


def test_measurement_probability_ghz_top():
    eng = ghz_engine(3)
    assert eng.measurement_probability(eng.root, 3, 0) == pytest.approx(0.5)


def test_measurement_probability_w_state():
    n = 5
    eng = Engine(n)
    e = w_state_edge(eng, n)
    for k in range(1, n + 1):
        assert eng.measurement_probability(e, k, 1) == pytest.approx(1.0 / n)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        eng = Engine(n)
        for name, qs in random_ops(rng, n, 20):
            eng.run_gate(name, *qs)
        for k in range(1, n + 1):
            total = eng.measurement_probability(
                eng.root, k, 0
            ) + eng.measurement_probability(eng.root, k, 1)
            assert abs(total - 1.0) < 1e-9


def test_update_post_meas_ghz():
    # the post-measurement state is the projection Engine._project builds
    eng = ghz_engine(3)
    zeros = eng._project(eng.root, 3, 0)
    vec = eng.store.to_dense(zeros)
    assert abs(vec[0]) > 0 and not np.any(np.abs(vec[1:]) > 1e-12)
    ones = eng._project(eng.root, 3, 1)
    vec = eng.store.to_dense(ones)
    assert abs(vec[-1]) > 0 and not np.any(np.abs(vec[:-1]) > 1e-12)


def test_update_post_meas_follows_label_flips():
    # X on qubit k swaps which branch outcome b selects
    rng = np.random.default_rng(28)
    n = 3
    eng = Engine(n)
    for name, qs in random_ops(rng, n, 15):
        eng.run_gate(name, *qs)
    e = eng.root
    flipped = eng.apply_pauli(e, pl.single(n, 2, "X"))
    a = eng.store.to_dense(eng._project(flipped, 2, 0))
    b = eng.store.to_dense(eng._project(e, 2, 1))
    want = op_on_qubit(n, 2, X2) @ b
    assert np.allclose(a, want, atol=1e-10)


def test_sample_deterministic_state():
    eng = Engine(2)
    rng = np.random.default_rng(29)
    assert all(eng.sample(rng) == "00" for _ in range(20))
    eng.run_gate("x", 2)
    assert eng.sample(rng) == "10"


def test_sample_seeded_runs_agree():
    eng = ghz_engine(4)
    a = [eng.sample(np.random.default_rng(5)) for _ in range(10)]
    b = [eng.sample(np.random.default_rng(5)) for _ in range(10)]
    assert a == b


def test_sample_ghz_balance():
    eng = ghz_engine(2)
    rng = np.random.default_rng(30)
    shots = 2000
    seen = {"00": 0, "11": 0}
    for _ in range(shots):
        s = eng.sample(rng)
        assert s in seen
        seen[s] += 1
    # 5 sigma on a fair coin
    assert abs(seen["00"] - shots / 2) <= 5 * math.sqrt(shots) / 2


def test_sample_creates_no_nodes_and_stays_in_the_support():
    rng = np.random.default_rng(32)
    for mode in ("limdd", "qmdd"):
        for _ in range(6):
            n = int(rng.integers(1, 7))
            eng = Engine(n, mode=mode)
            for name, qs in random_ops(rng, n, 4 * n):
                eng.run_gate(name, *qs)
            probs = np.abs(eng.to_dense()) ** 2
            before = eng.store.node_count()
            for _ in range(50):
                assert probs[int(eng.sample(rng), 2)] > 1e-12
            assert eng.store.node_count() == before


def test_sample_frequencies_match_amplitudes():
    rng = np.random.default_rng(34)
    n = 3
    eng = Engine(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    vec[2] = 0.0
    e = edge_from_dense(eng.store, vec)
    probs = np.abs(vec) ** 2 / np.sum(np.abs(vec) ** 2)
    shots = 4000
    counts = np.zeros(1 << n)
    for _ in range(shots):
        counts[int(eng.sample(rng, e), 2)] += 1
    # each count within 5 sigma of its binomial mean; an empty outcome never
    sigma = np.sqrt(shots * probs * (1 - probs))
    assert np.all(np.abs(counts - shots * probs) <= 5 * sigma)
    assert counts[2] == 0


def test_prob_of_string_matches_amplitudes():
    # per-qubit outcome probabilities are the marginals of the dense state
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        eng = Engine(n)
        for name, qs in random_ops(rng, n, 15):
            eng.run_gate(name, *qs)
        probs = np.abs(eng.to_dense()) ** 2
        probs /= probs.sum()
        idx = np.arange(1 << n)
        for k in range(1, n + 1):
            total = 0.0
            for y in (0, 1):
                p = eng.measurement_probability(eng.root, k, y)
                total += p
                want = probs[((idx >> (k - 1)) & 1) == y].sum()
                assert p == pytest.approx(want, abs=1e-9)
            assert total == pytest.approx(1.0, abs=1e-6)


def test_apply_pauli_changes_only_root_label():
    eng = Engine(4)
    before = eng.root
    eng.run_gate("x", 4)
    after = eng.root
    assert after.target is before.target
    vec = eng.to_dense()
    assert vec[1 << 3] == 1.0 and not np.any(np.delete(vec, 1 << 3))


def test_phase_gate_square_is_z():
    rng = np.random.default_rng(32)
    n = 3
    eng = Engine(n)
    for name, qs in random_ops(rng, n, 12):
        eng.run_gate(name, *qs)
    for k in (1, 2, 3):
        twice = eng.apply_phase(eng.apply_phase(eng.root, k, "s"), k, "s")
        direct = eng.apply_pauli(eng.root, pl.single(n, k, "Z"))
        assert np.allclose(
            eng.store.to_dense(twice), eng.store.to_dense(direct), atol=1e-10
        )
        undone = eng.apply_phase(eng.apply_phase(eng.root, k, "s"), k, "sdg")
        assert np.allclose(
            eng.store.to_dense(undone), eng.to_dense(), atol=1e-10
        )


def test_hadamard_layer_uniform_superposition():
    n = 6
    eng = Engine(n)
    for k in range(1, n + 1):
        eng.run_gate("h", k)
    assert np.allclose(eng.to_dense(), np.full(1 << n, 2 ** (-n / 2)), atol=1e-12)
    assert eng.node_count() == n


def test_t_top_phase():
    eng = Engine(1)
    eng.run_gate("h", 1)
    eng.run_gate("t", 1)
    want = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2)
    assert np.allclose(eng.to_dense(), want, atol=1e-12)
    # below the top, T descends past labels with X factors on its qubit
    n = 3
    for k in range(1, n + 1):
        eng = Engine(n)
        eng.run_gate("h", 1)
        eng.run_gate("s", 1)
        eng.run_gate("h", n)
        eng.run_gate("cx", n, 1)
        eng.run_gate("x", 2)
        eng.run_gate("h", 2)
        ref = eng.to_dense()
        eng.run_gate("t", k)
        want = op_on_qubit(n, k, T2) @ ref
        assert np.allclose(eng.to_dense(), want, atol=1e-12)
        assert eng.stats.apply_calls == 0


def test_every_gate_takes_a_structural_route():
    rng = np.random.default_rng(33)
    n = 4
    eng = Engine(n)
    for name, qs in random_ops(rng, n, 20):
        eng.run_gate(name, *qs)
    for name, arity in GATE_ARITY.items():
        for qs in itertools.permutations(range(1, n + 1), arity):
            eng.run_gate(name, *qs)
    assert eng.stats.apply_calls == 0


def test_t_then_tdg_returns_to_the_same_node():
    rng = np.random.default_rng(34)
    n = 5
    eng = Engine(n)
    for name, qs in random_ops(rng, n, 40):
        eng.run_gate(name, *qs)
    before = eng.root
    for k in range(1, n + 1):
        eng.run_gate("t", k)
        eng.run_gate("tdg", k)
        assert eng.root.target is before.target
        assert np.allclose(eng.to_dense(), eng.store.to_dense(before), atol=1e-12)


def gate_cell(eng, u, n, r, c):
    bits = []
    for k in range(n - 1, -1, -1):
        bits.append(str((r >> k) & 1))
        bits.append(str((c >> k) & 1))
    return eng.store.amplitude(u, "".join(bits))


def gate_matrix(eng, u, n):
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for r in range(1 << n):
        for c in range(1 << n):
            m[r, c] = gate_cell(eng, u, n, r, c)
    return m


def test_gate_to_dd_identity_structure():
    # an identity-group store keeps a zero-low node for the second row
    eng = Engine(1, mode="qmdd")
    u = eng.gate_to_dd("i", (1,))
    assert u.target.index == 2
    assert eng.store.reachable_count(u) == 3
    assert np.allclose(gate_matrix(eng, u, 1), np.eye(2), atol=1e-12)


def test_gate_to_dd_hadamard_cells():
    eng = Engine(1, mode="qmdd")
    u = eng.gate_to_dd("h", (1,))
    s = 1 / math.sqrt(2)
    assert np.allclose(
        gate_matrix(eng, u, 1), np.array([[s, s], [s, -s]]), atol=1e-12
    )


def test_gate_to_dd_cnot_both_orientations():
    eng = Engine(2, mode="qmdd")
    for c, t in ((2, 1), (1, 2)):
        u = eng.gate_to_dd("cx", (c, t))
        assert u.target.index == 4
        assert np.allclose(gate_matrix(eng, u, 2), cx_matrix(2, c, t), atol=1e-12)


def test_gate_to_dd_embeds_in_wider_registers():
    eng = Engine(4, mode="qmdd")
    u = eng.gate_to_dd("cz", (3, 1))
    assert np.allclose(gate_matrix(eng, u, 4), cz_matrix(4, 3, 1), atol=1e-12)


def test_mcx_matches_dense():
    rng = np.random.default_rng(33)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        eng = Engine(n)
        for name, qs in random_ops(rng, n, 10):
            eng.run_gate(name, *qs)
        qubits = list(rng.permutation(n) + 1)
        t = int(qubits[0])
        controls = [(int(q), int(rng.integers(0, 2))) for q in qubits[1 : 1 + int(rng.integers(1, n))]]
        got = eng.apply_mcx(eng.root, controls, t)
        ref = eng.to_dense()
        dim = 1 << n
        out = ref.copy()
        for i in range(dim):
            if all(((i >> (q - 1)) & 1) == want for q, want in controls):
                out[i] = 0.0
        for i in range(dim):
            if all(((i >> (q - 1)) & 1) == want for q, want in controls):
                out[i ^ (1 << (t - 1))] += ref[i]
        assert np.allclose(eng.store.to_dense(got), out, atol=1e-10)


def test_qmdd_engine_rejects_structural_paths():
    eng = Engine(2, mode="qmdd")
    with pytest.raises(EngineError):
        eng.apply_pauli(eng.root, pl.single(2, 1, "X"))
    with pytest.raises(EngineError):
        eng.apply_hadamard(eng.root, 1)


def test_gate_argument_validation():
    eng = Engine(2)
    with pytest.raises(EngineError):
        eng.run_gate("h", 3)
    with pytest.raises(EngineError):
        eng.run_gate("cx", 1, 1)
    with pytest.raises(EngineError):
        eng.run_gate("frobnicate", 1)
    with pytest.raises(EngineError):
        Engine(0)
    with pytest.raises(EngineError):
        Engine(2, mode="dense")


def test_limdd_engine_rejects_gate_diagrams():
    with pytest.raises(EngineError, match="qmdd"):
        Engine(2).gate_to_dd("x", (1,))


def test_mcx_argument_validation():
    eng = Engine(3)
    eng.run_gate("x", 1)
    root = eng.root
    for controls, target in (
        ([(5, 1)], 2),        # control out of range
        ([(1, 1)], 7),        # target out of range, nonzero projection
        ([(2, 1)], 7),        # target out of range, zero projection
        ([(1, 3)], 2),        # wanted bit not 0 or 1
        ([(2, 1)], 2),        # target is a control
    ):
        with pytest.raises(EngineError):
            eng.run_mcx(controls, target)
        assert eng.root is root
    assert eng.stats.gate_count == 1


def test_measurement_probability_rejects_bad_outcomes():
    eng = Engine(2)
    with pytest.raises(EngineError):
        eng.measurement_probability(eng.root, 1, 2)


def test_gate_past_the_recursion_limit_is_an_engine_error():
    # the qmdd descent recurses once per level and runs out of depth here
    eng = Engine(600, mode="qmdd")
    root = eng.root
    with pytest.raises(EngineError, match="600 qubits"):
        eng.run_gate("h", 1)
    assert eng.root is root


def test_limdd_descents_past_the_recursion_limit_are_engine_errors():
    # H on qubit 1 descends through every level; an upward cx over the
    # whole register runs its cross-select descent from top to bottom
    eng = Engine(1100)
    eng.run_gate("h", 1100)
    root = eng.root
    for gate in (("h", 1), ("cx", 1, 1100)):
        with pytest.raises(EngineError, match="1100 qubits") as err:
            eng.run_gate(*gate)
        assert "\n" not in str(err.value)
        assert eng.root is root


def test_measurement_past_the_recursion_limit():
    # sampling walks down without recursing; the per-qubit probability
    # recurses and reports the limit as an EngineError
    eng = Engine(1000)
    eng.run_gate("h", 1000)
    eng.run_gate("x", 1)
    rng = random.Random(1)
    shots = {eng.sample(rng) for _ in range(8)}
    assert shots == {"0" + "0" * 998 + "1", "1" + "0" * 998 + "1"}
    with pytest.raises(EngineError, match="1000 qubits"):
        eng.measurement_probability(eng.root, 1, 1)


def test_stats_output_shape():
    eng = ghz_engine(3)
    d = eng.stats.as_dict()
    assert d["gate_count"] == 3
    assert d["peak_nodes"] >= 3
