"""Simulation engine: gate routes, caches, measurement, gate diagrams."""

from __future__ import annotations

import cmath
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

import limdd.pauli as pl
from limdd.circuit import (
    GATE_ARITY,
    Circuit,
    build_engine,
    compare_modes,
    dense_simulate,
)
from limdd.diagram import DiagramStore, Edge, scale_edge
from limdd.engine import Engine, EngineError, EngineStats
from limdd.states import w_state_as_circuit
from oracles import (
    H2,
    S2,
    T2,
    X2,
    Y2,
    Z2,
    audited_gate,
    build_audited,
    cx_matrix,
    cz_matrix,
    edge_from_dense,
    op_on_qubit,
    random_clifford_circuit,
    sample_by_follow,
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
        eng = Engine(n, mode=mode)
        ref = np.zeros(1 << n, dtype=complex)
        ref[0] = 1.0
        for name, qs in random_ops(rng, n, 25):
            audited_gate(eng, name, *qs)
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
        limdd = build_audited(c, "limdd")
        assert limdd.stats.apply_calls == 0
        for vec in (
            limdd.to_dense(),
            build_engine(c, "qmdd").to_dense(),
            dense_simulate(c),
        ):
            assert np.max(np.abs(vec - ref)) < 1e-10


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
    # (e, f) and (f, e) are separate entries of one sum
    eng = Engine(3)
    rng = np.random.default_rng(23)
    e = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
    f = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
    r1 = eng.add(e, f)
    r2 = eng.add(f, e)
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


def test_butterfly_matches_two_adds():
    rng = np.random.default_rng(91)
    m = 4
    eng = Engine(m)
    top = 1 << (m - 1)
    for trial in range(60):
        e = _operand(eng, rng, xs=top if trial % 2 else 0)
        if trial % 5 == 0 and not pl.is_zero(e.label):
            # equal targets, another label
            f = Edge(pl.mul(pl.PauliLim(m, top, 1, 0.5j), e.label), e.target)
        else:
            f = _operand(eng, rng, xs=top if trial % 3 else 0)
        s, d = eng._run(eng._butterfly(e, f))
        _same_state(eng, s, eng.add(e, f))
        _same_state(eng, d, eng.add(e, scale_edge(-1.0, f)))


def test_butterfly_shares_one_entry_for_both_signs():
    # the butterflies of f and -f are one pair, swapped
    rng = np.random.default_rng(92)
    eng = Engine(3)
    for _ in range(10):
        e = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
        f = edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
        s, d = eng._run(eng._butterfly(e, f))
        s2, d2 = eng._run(eng._butterfly(e, scale_edge(-1.0, f)))
        _same_state(eng, s2, d)
        _same_state(eng, d2, s)


def test_cross_matches_projections_and_add():
    rng = np.random.default_rng(93)
    m = 4
    eng = Engine(m)
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
            got = eng._run(eng._cross(a, b, c))
            p0 = eng._run(eng._project(a, c, 0))
            want = eng.add(p0, eng._run(eng._project(b, c, 1)))
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
        eng = build_audited(c, "limdd")
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
    zeros = eng._run(eng._project(eng.root, 3, 0))
    vec = eng.store.to_dense(zeros)
    assert abs(vec[0]) > 0 and not np.any(np.abs(vec[1:]) > 1e-12)
    ones = eng._run(eng._project(eng.root, 3, 1))
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
    flipped = Edge(pl.mul(pl.single(n, 2, "X"), e.label), e.target)
    a = eng.store.to_dense(eng._run(eng._project(flipped, 2, 0)))
    b = eng.store.to_dense(eng._run(eng._project(e, 2, 1)))
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


def clifford_t_with_x_labels(rng, mode, n):
    """A seeded random Clifford+T state, then x or y on up to three qubits,
    which a limdd engine writes onto the root label as X bits."""
    eng = Engine(n, mode=mode)
    for name, qs in random_ops(rng, n, 4 * n):
        eng.run_gate(name, *qs)
    for q in rng.choice(n, size=min(n, 3), replace=False):
        eng.run_gate(("x", "y")[int(rng.integers(2))], int(q) + 1)
    return eng


def assert_draws_match_follow(eng, e, seed, shots=64):
    a, b = random.Random(seed), random.Random(seed)
    got = [eng.sample(a, e) for _ in range(shots)]
    assert got == [sample_by_follow(eng, b, e) for _ in range(shots)]


def test_sample_draws_equal_the_follow_walk():
    # the X-mask walk takes the branch that store.follow takes, on the
    # same random draws
    rng = np.random.default_rng(35)
    x_roots = 0
    for mode in ("limdd", "qmdd"):
        for n in range(1, 9):
            for rep in range(3):
                eng = clifford_t_with_x_labels(rng, mode, n)
                x_roots += bin(eng.root.label.x).count("1") >= 2
                assert_draws_match_follow(eng, eng.root, 100 * n + rep)
                below = eng.store.follow(eng.root, 1)
                if not pl.is_zero(below.label):
                    assert_draws_match_follow(eng, below, 100 * n + rep)
    assert x_roots >= 10
    # qmdd zero-low nodes: |1> on qubits 3 and 2, |+> on qubit 1
    eng = Engine(3, mode="qmdd")
    for name, q in (("x", 3), ("x", 2), ("h", 1)):
        eng.run_gate(name, q)
    assert pl.is_zero(eng.root.target.low.label)
    assert_draws_match_follow(eng, eng.root, 7)
    # dense states with empty outcomes, one of them a whole half
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec[2] = 0.0
    for mode in ("limdd", "qmdd"):
        for v in (vec, np.where(np.arange(8) < 4, 0.0, vec)):
            eng = Engine(3, mode=mode)
            e = edge_from_dense(eng.store, v)
            assert_draws_match_follow(eng, e, 8)
            assert all(abs(v[int(eng.sample(rng, e), 2)]) > 0 for _ in range(64))


def test_sample_does_no_label_algebra(monkeypatch):
    rng = np.random.default_rng(36)
    engines = [ghz_engine(64), clifford_t_with_x_labels(rng, "limdd", 8)]
    assert bin(engines[1].root.label.x).count("1") >= 2

    def refuse(*_):
        raise AssertionError("DiagramStore.follow called")

    monkeypatch.setattr(DiagramStore, "follow", refuse)
    drawn = []
    for k, eng in enumerate(engines):
        draws = random.Random(k)
        drawn.append([eng.sample(draws) for _ in range(100)])
    monkeypatch.undo()
    for k, eng in enumerate(engines):
        draws = random.Random(k)
        assert drawn[k] == [sample_by_follow(eng, draws, eng.root) for _ in range(100)]


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
        twice = eng._phase(eng._phase(eng.root, k, "s"), k, "s")
        direct = Edge(pl.mul(pl.single(n, k, "Z"), eng.root.label), eng.root.target)
        assert np.allclose(
            eng.store.to_dense(twice), eng.store.to_dense(direct), atol=1e-10
        )
        undone = eng._phase(eng._phase(eng.root, k, "s"), k, "sdg")
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


def assert_embeds(eng, u, want, rng):
    """Applying gate edge u to random states of eng's width gives the dense
    gate ``want`` on them."""
    dim = 1 << eng.n
    for _ in range(4):
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        got = eng.store.to_dense(eng.apply_gate(u, edge_from_dense(eng.store, vec)))
        assert np.allclose(got, want @ vec, atol=1e-10)


def test_gate_to_dd_embeds_in_wider_registers():
    # the diagram is local to qubits 1..3; on a 4-qubit state it is CZ(3, 1)
    eng = Engine(4, mode="qmdd")
    u = eng.gate_to_dd("cz", (3, 1))
    assert u.target.index == 6
    assert np.allclose(gate_matrix(eng, u, 3), cz_matrix(3, 3, 1), atol=1e-12)
    assert_embeds(eng, u, cz_matrix(4, 3, 1), np.random.default_rng(27))


def mcx_matrix(n, controls, t):
    want = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        hit = all(((i >> (q - 1)) & 1) == b for q, b in controls)
        want[i ^ (1 << (t - 1)) if hit else i, i] = 1.0
    return want


def test_qmdd_mcx_diagram_matches_dense():
    # each diagram is local to qubits 1..k, k its highest qubit; on a
    # 4-qubit state it is the 4-qubit gate
    n = 4
    eng = Engine(n, mode="qmdd")
    rng = np.random.default_rng(28)
    for controls, t in (((), 2), (((3, 1),), 1), (((1, 0), (3, 1)), 2), (((2, 0),), 3)):
        k = max([t, *(q for q, _ in controls)])
        u = eng._mcx_to_dd(controls, t)
        assert eng._mcx_to_dd(controls, t) is u
        assert u.target.index == 2 * k
        assert np.allclose(gate_matrix(eng, u, k), mcx_matrix(k, controls, t), atol=1e-12)
        assert_embeds(eng, u, mcx_matrix(n, controls, t), rng)


@pytest.mark.parametrize("n", range(1, 7))
def test_qmdd_local_gate_diagrams_on_every_qubit(n):
    # every gate of the grammar and several mcx control patterns, on every
    # qubit, against the dense oracle (user qubit n - q is engine qubit q)
    rng = np.random.default_rng(40 + n)
    prep = []
    for q in range(n):
        prep += [("h", (q,)), ("t", (q,))]
    prep += [("cx", (q, q + 1)) for q in range(n - 1)]
    ops = []
    for name, arity in GATE_ARITY.items():
        for qs in itertools.permutations(range(n), arity):
            ops.append((name, qs))
    for t in range(n):
        others = [q for q in range(n) if q != t]
        for size in range(min(3, n)):
            ctrl = rng.permutation(others)[:size]
            ops.append(("mcx", (t, *((int(q), int(rng.integers(0, 2))) for q in ctrl))))
    for op in ops:
        c = Circuit(n, tuple(prep) + (op,))
        got = build_engine(c, "qmdd").to_dense()
        assert np.max(np.abs(got - dense_simulate(c))) < 1e-10, op


@pytest.mark.parametrize(
    "name, qs", [("h", (3,)), ("t", (1,)), ("cx", (2, 5)), ("cx", (5, 2)), ("cz", (4, 1))]
)
def test_qmdd_gate_diagram_size_does_not_depend_on_n(name, qs):
    sizes = []
    for n in (8, 64):
        eng = Engine(n, mode="qmdd")
        u = eng.gate_to_dd(name, qs)
        assert u.target.index == 2 * max(qs)
        sizes.append(eng.store.reachable_count(u))
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("n", [4, 8, 16])
def test_qmdd_w_states_match_limdd(n):
    c = w_state_as_circuit(n)
    if n <= 14:
        assert compare_modes(c, "limdd", "qmdd") < 1e-10
    else:
        got = build_engine(c, "qmdd").to_dense()
        assert np.max(np.abs(got - build_engine(c, "limdd").to_dense())) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_qmdd_identity_gate_returns_the_root_node(k):
    eng = Engine(5, mode="qmdd")
    eng.run_gate("h", 2)
    eng.run_gate("cx", 2, 4)
    before, calls = eng.root, eng.stats.apply_calls
    eng.run_gate("i", k)
    assert eng.root.target is before.target
    assert eng.stats.apply_calls - calls <= 1
    assert np.allclose(eng.to_dense(), eng.store.to_dense(before), atol=1e-12)


@pytest.mark.parametrize("gate", ["x", "cx", "cz"])
def test_qmdd_apply_calls_on_top_gates_do_not_grow_with_n(gate):
    # identity blocks below the gate (and the control-0 half of a downward
    # cx or cz) return the operand without descending
    calls = []
    for n in (8, 64):
        eng = Engine(n, mode="qmdd")
        eng.run_gate(gate, *((n,) if gate == "x" else (n, n - 1)))
        calls.append(eng.stats.apply_calls)
    assert calls[0] == calls[1]


def test_qmdd_top_hadamard_past_the_recursion_limit():
    eng = Engine(600, mode="qmdd")
    eng.run_gate("h", 600)
    assert eng.measurement_probability(eng.root, 600, 0) == 0.5
    assert eng.node_count() == 600


def test_qmdd_random_circuits_match_dense_simulate():
    rng = np.random.default_rng(41)
    names = ("h", "s", "sdg", "t", "tdg", "x", "y", "z")
    for n in range(2, 8):
        ops = []
        for _ in range(25):
            if rng.random() < 0.4:
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                ops.append(("cx" if rng.random() < 0.6 else "cz", (a, b)))
            else:
                ops.append((names[int(rng.integers(0, 8))], (int(rng.integers(0, n)),)))
        eng = Engine(n, mode="qmdd")
        for name, qs in ops:
            eng.run_gate(name, *(n - q for q in qs))
        ref = dense_simulate(Circuit(n, tuple(ops)))
        assert np.max(np.abs(eng.to_dense() - ref)) < 1e-10


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
        got = eng._mcx(eng.root, controls, t)
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


def test_gate_argument_validation():
    messages: dict = {}
    for mode in ("limdd", "qmdd"):
        eng = Engine(2, mode=mode)
        eng.run_gate("x", 1)
        root = eng.root
        for name, qs in (
            ("h", (3,)),          # qubit out of range
            ("cx", (1, 1)),       # repeated qubit
            ("frobnicate", (1,)),
            ("h", ()),            # too few qubits
            ("cx", (1,)),
            ("h", (1, 2)),        # too many qubits
        ):
            with pytest.raises(EngineError) as err:
                eng.run_gate(name, *qs)
            assert eng.root is root
            messages.setdefault((name, qs), set()).add(str(err.value))
        assert eng.stats.gate_count == 1
    # one check before the route, so both modes give the same message
    assert all(len(m) == 1 for m in messages.values()), messages
    assert messages[("h", (1, 2))] == {"h takes 1 qubit argument(s), not 2"}
    for n in (0, 2.5, "3", None):
        with pytest.raises(EngineError):
            Engine(n)
    with pytest.raises(EngineError):
        Engine(2, mode="dense")


def test_add_and_apply_gate_reject_mismatched_levels():
    eng = Engine(3, mode="qmdd")
    low = eng.store.follow(eng.root, 0)                  # level 2
    with pytest.raises(EngineError, match="equal levels"):
        eng.add(eng.root, low)
    u = eng.gate_to_dd("x", (2,))                        # 4 levels
    with pytest.raises(EngineError, match="even level"):
        eng.apply_gate(eng.store.follow(u, 1), eng.root)     # 3 levels
    with pytest.raises(EngineError, match="twice"):
        eng.apply_gate(u, eng.store.follow(low, 0))          # state of level 1


def test_limdd_engine_rejects_gate_diagrams():
    with pytest.raises(EngineError, match="qmdd"):
        Engine(2).gate_to_dd("x", (1,))


def test_gate_to_dd_reads_names_in_any_case():
    eng = Engine(2, mode="qmdd")
    u = eng.gate_to_dd("H", (1,))
    assert np.allclose(gate_matrix(eng, u, 1), H2, atol=1e-12)
    assert eng.gate_to_dd("h", (1,)) is u
    assert eng.gate_to_dd("CX", (2, 1)) is eng.gate_to_dd("cx", (2, 1))


def test_run_gate_checks_the_gate_once(monkeypatch):
    calls = []
    check = Engine._check_gate

    def counted(self, name, qubits):
        calls.append((name, tuple(qubits)))
        return check(self, name, qubits)

    monkeypatch.setattr(Engine, "_check_gate", counted)
    for mode in ("limdd", "qmdd"):
        eng = Engine(2, mode=mode)
        calls.clear()
        eng.run_gate("H", 1)
        assert calls == [("h", (1,))]


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


def test_qmdd_gates_on_qubit_1_of_600_qubits():
    # the apply and its Adds descend through all 600 levels on one explicit
    # stack; x on the top qubit skips the identity block below it
    eng = Engine(600, mode="qmdd")
    eng.run_gate("h", 1)
    assert eng.measurement_probability(eng.root, 1, 0) == pytest.approx(0.5)
    assert eng.node_count() == 600
    eng.run_gate("h", 1)
    eng.run_gate("x", 600)
    eng.run_gate("cx", 600, 1)
    assert eng.measurement_probability(eng.root, 1, 1) == pytest.approx(1.0)
    eng.run_gate("h", 600)
    eng.run_mcx([(600, 1), (1, 1)], 300)
    assert eng.measurement_probability(eng.root, 300, 1) == pytest.approx(0.5)
    flipped = "1" + "0" * 299 + "1" + "0" * 298 + "1"
    assert eng.amplitude("0" * 599 + "1") == pytest.approx(math.sqrt(0.5))
    assert eng.amplitude(flipped) == pytest.approx(-math.sqrt(0.5))


def test_limdd_descents_through_1100_levels():
    # every structural route descends from the top to qubit 1 or 2: the
    # butterfly of H, the cross-select of upward CX, the phase and
    # controlled-Pauli descents, and the projections and Adds of mcx
    n = 1100
    eng = Engine(n)
    eng.run_gate("h", n)
    eng.run_gate("h", 1)
    assert eng.measurement_probability(eng.root, 1, 1) == pytest.approx(0.5)
    assert eng.node_count() == n

    def amp(top, q2, q1):
        return eng.amplitude(f"{top}" + "0" * (n - 3) + f"{q2}{q1}")

    eng.run_gate("z", n)
    eng.run_gate("cx", 1, n)   # phase kickback: |->|+> becomes |->|->
    assert amp(1, 0, 1) == pytest.approx(0.5)
    assert amp(0, 0, 1) == pytest.approx(-0.5)
    eng.run_gate("t", 1)
    w = cmath.exp(1j * math.pi / 4)
    assert amp(1, 0, 1) == pytest.approx(0.5 * w)
    eng.run_gate("x", 2)
    eng.run_gate("cz", 2, 1)
    assert amp(1, 1, 1) == pytest.approx(-0.5 * w)
    assert amp(0, 1, 0) == pytest.approx(0.5)
    eng.run_mcx([(n, 1), (1, 1)], 500)
    assert eng.measurement_probability(eng.root, 500, 1) == pytest.approx(0.25)
    assert eng.measurement_probability(eng.root, 2, 1) == pytest.approx(1.0)
    assert eng.node_count() == 2 * n - 1


def test_measurement_past_the_recursion_limit():
    # sampling and the per-qubit probability both walk down without
    # recursing
    eng = Engine(1000)
    eng.run_gate("h", 1000)
    eng.run_gate("x", 1)
    rng = random.Random(1)
    shots = {eng.sample(rng) for _ in range(8)}
    assert shots == {"0" + "0" * 998 + "1", "1" + "0" * 998 + "1"}
    assert eng.measurement_probability(eng.root, 1, 1) == 1.0
    assert eng.measurement_probability(eng.root, 1000, 0) == pytest.approx(0.5)


@pytest.mark.parametrize("n", [1030, 1100])
def test_measurement_where_absolute_norms_overflow(n):
    # |+>^n as a qmdd tower: the unnormalized node norms reach 2^n, past
    # the float range from n = 1024
    eng = Engine(n, mode="qmdd")
    e = Edge(pl.identity(0), eng.store.leaf)
    for _ in range(n):
        e = eng.store.make_edge(e, e)
    eng.set_root(scale_edge(2 ** (-n / 2), e))
    assert eng.squared_norm(eng.root) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    tops = {eng.sample(rng)[:7] for _ in range(64)}
    assert len(tops) > 1
    assert eng.measurement_probability(eng.root, n, 1) == pytest.approx(0.5)
    assert eng.measurement_probability(eng.root, 1, 0) == pytest.approx(0.5)


def test_non_integer_arguments_are_engine_errors():
    for mode in ("limdd", "qmdd"):
        eng = Engine(2, mode=mode)
        root = eng.root
        for call in (
            lambda: eng.run_gate("x", 1.0),
            lambda: eng.run_gate("t", 1.5),
            lambda: eng.run_mcx([(2.0, 1)], 1),
            lambda: eng.run_mcx([(2, 1.0)], 1),
            lambda: eng.run_mcx([(2, 1)], 1.0),
            lambda: eng.measurement_probability(root, 1.0, 0),
            lambda: eng.measurement_probability(root, 1, 0.0),
        ):
            with pytest.raises(EngineError):
                call()
        assert eng.root is root
        # NumPy integers are integers
        eng.run_gate("x", np.int64(1))
        assert eng.measurement_probability(eng.root, np.int64(1), np.int8(1)) == 1.0


def test_stats_output_shape():
    eng = ghz_engine(3)
    d = eng.stats.as_dict()
    assert d["gate_count"] == 3
    assert d["peak_nodes"] >= 3


# -- Add's terminal rules: level-1 pairs and one-node pairs -----------------


def _level1_edges(store, rng):
    """Edges on level-1 nodes of ``store``: both branches nonzero, a zero
    high branch and a zero low branch (a zero-low node in an identity-group
    store), under every label string the store allows and random scalars."""
    strings = ((0, 0), (1, 0), (1, 1), (0, 1)) if store.group == "pauli" else ((0, 0),)
    out = []
    for _ in range(6):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        for vec in ((a, b), (a, 0), (0, b)):
            e = edge_from_dense(store, np.array(vec))
            for x, z in strings:
                s = complex(*rng.normal(size=2))
                p = pl.PauliLim(1, x, z, s)
                out.append(Edge(pl.mul(p, e.label), e.target))
    return out


@pytest.mark.parametrize("mode", ["limdd", "qmdd"])
def test_leaf_scalars_equal_follow_exactly(mode):
    rng = np.random.default_rng(61)
    store = Engine(1, mode=mode).store
    edges = _level1_edges(store, rng)
    if mode == "qmdd":
        assert any(pl.is_zero(e.target.low.label) for e in edges)
    else:
        assert {(e.label.x, e.label.z) for e in edges} == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert any(pl.is_zero(e.target.high.label) for e in edges)
    for e in edges:
        got = store.leaf_scalars(e)
        for b in (0, 1):
            lbl = store.follow(e, b).label
            assert got[b] == (None if pl.is_zero(lbl) else lbl.scalar)


def _stat_delta(eng, before):
    now = eng.stats
    return (
        now.add_calls - before.add_calls,
        now.add_cache_hits - before.add_cache_hits,
        now.add_cache_misses - before.add_cache_misses,
    )


@pytest.mark.parametrize("mode", ["limdd", "qmdd"])
def test_level1_add_and_butterfly_match_dense(mode):
    rng = np.random.default_rng(62)
    eng = Engine(1, mode=mode)
    dense = eng.store.to_dense
    edges = _level1_edges(eng.store, rng)
    for _ in range(80):
        e, f = (edges[int(i)] for i in rng.integers(0, len(edges), size=2))
        before = EngineStats(**eng.stats.as_dict())
        got = eng.add(e, f)
        assert _stat_delta(eng, before) == (1, 0, 1)
        assert np.max(np.abs(dense(got) - (dense(e) + dense(f)))) < 1e-12
        before = EngineStats(**eng.stats.as_dict())
        s, d = eng._run(eng._butterfly(e, f))
        assert _stat_delta(eng, before) == (2, 0, 2)
        assert np.max(np.abs(dense(s) - (dense(e) + dense(f)))) < 1e-12
        assert np.max(np.abs(dense(d) - (dense(e) - dense(f)))) < 1e-12
        # exact cancellation is the zero edge
        assert pl.is_zero(eng.add(e, scale_edge(-1.0, e)).label)
        assert pl.is_zero(eng._run(eng._butterfly(e, e))[1].label)
        assert pl.is_zero(eng._run(eng._butterfly(e, scale_edge(-1.0, e)))[0].label)


def test_level1_step_under_a_deeper_add():
    # the level-1 step is the bottom of every descent at level >= 2
    rng = np.random.default_rng(63)
    for mode in ("limdd", "qmdd"):
        eng = Engine(3, mode=mode)
        for _ in range(10):
            vecs = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)]
            vecs[1][rng.random(8) < 0.4] = 0.0
            e, f = (edge_from_dense(eng.store, v) for v in vecs)
            got = eng.add(e, f)
            assert np.max(np.abs(eng.store.to_dense(got) - (vecs[0] + vecs[1]))) < 1e-12
            s, d = eng._run(eng._butterfly(e, f))
            assert np.max(np.abs(eng.store.to_dense(s) - (vecs[0] + vecs[1]))) < 1e-12
            assert np.max(np.abs(eng.store.to_dense(d) - (vecs[0] - vecs[1]))) < 1e-12


@pytest.mark.parametrize("k", [1, -1, 1j, 0.3 + 0.1j])
def test_one_node_exit_on_stabilizer_towers(k):
    rng = np.random.default_rng(64)
    n = 5
    for trial in range(6):
        eng = Engine(n)
        for gate in random_clifford_circuit(n, rng, 4 * n):
            eng.run_gate(*gate)
        e = eng.root
        v = e.target
        assert v.stab.rows
        # f = k w e, w a stabilizer element of e's node, so f = k e as states
        w = v.stab.gens[trial % len(v.stab.gens)] if trial % 2 else pl.identity(n)
        f = Edge(pl.scale(k, pl.mul(e.label, w)), v)
        want = eng.store.to_dense(e)
        created = eng.store.nodes_created()
        before = EngineStats(**eng.stats.as_dict())
        got = eng.add(e, f)
        assert _stat_delta(eng, before) == (1, 0, 1)
        before = EngineStats(**eng.stats.as_dict())
        s, d = eng._run(eng._butterfly(e, f))
        assert _stat_delta(eng, before) == (2, 0, 2)
        assert eng.store.nodes_created() == created
        for res, c in ((got, 1 + k), (s, 1 + k), (d, 1 - k)):
            if c == 0:
                assert pl.is_zero(res.label)
            else:
                assert res.target is v
                assert np.max(np.abs(eng.store.to_dense(res) - c * want)) < 1e-12


def test_add_counters_by_path():
    # a table hit counts one hit and no miss; every path that skips the
    # table (leaf pairs above level 0, one-node pairs) counts a miss
    rng = np.random.default_rng(65)
    eng = Engine(3)
    e, f = (
        edge_from_dense(eng.store, rng.normal(size=8) + 1j * rng.normal(size=8))
        for _ in range(2)
    )
    eng.add(e, f)
    before = EngineStats(**eng.stats.as_dict())
    eng.add(e, f)
    assert _stat_delta(eng, before) == (1, 1, 0)
    eng._run(eng._butterfly(e, f))
    before = EngineStats(**eng.stats.as_dict())
    eng._run(eng._butterfly(e, f))
    assert _stat_delta(eng, before) == (2, 2, 0)
    # zero operands and level-0 pairs count as calls only
    before = EngineStats(**eng.stats.as_dict())
    eng.add(e, Edge(pl.zero(3), e.target))
    leaf = Edge(pl.identity(0), eng.store.leaf)
    eng._run(eng._add(leaf, leaf))
    assert _stat_delta(eng, before) == (2, 0, 0)


# -- output identity: node counts and samples recorded before Add's
# terminal rules, which must not move them


def _guard_circuit(seed: int) -> Circuit:
    """An 8-qubit Clifford+T circuit: layers of H, T and a CX ladder down,
    H, T and a CX ladder up, then H, which saturate the state, and a seeded
    random tail of 60 gates."""
    n = 8
    ops = []
    for ladder in ([(q, q + 1) for q in range(n - 1)], [(q + 1, q) for q in range(n - 1)]):
        ops += [("h", (q,)) for q in range(n)] + [("t", (q,)) for q in range(n)]
        ops += [("cx", pair) for pair in ladder]
    ops += [("h", (q,)) for q in range(n)]
    rng = random.Random(f"guard/{seed}")
    for _ in range(60):
        kind = rng.choice(("h", "h", "t", "t", "tdg", "s", "x", "z", "cx", "cx", "cz"))
        if kind in ("cx", "cz"):
            ops.append((kind, tuple(rng.sample(range(n), 2))))
        else:
            ops.append((kind, (rng.randrange(n),)))
    return Circuit(n, tuple(ops))


def _guard_record(seed: int, mode: str) -> tuple:
    """(live nodes, store nodes, sha256 prefix of 64 samples)."""
    eng = build_engine(_guard_circuit(seed), mode)
    rng = random.Random(f"guard/{seed}/shots")
    shots = "".join(eng.sample(rng) for _ in range(64))
    return eng.node_count(), eng.store.node_count(), hashlib.sha256(shots.encode()).hexdigest()[:16]


# recorded with the Add that descended to level 0 through the table
GUARD_RECORDS = {
    ("limdd", 1): (255, 610, "e59ecf97c031c20c"),
    ("limdd", 2): (255, 640, "eda06bd8d5ee4674"),
    ("limdd", 3): (255, 258, "5a66748ecf5459ba"),
    ("qmdd", 1): (255, 690, "e59ecf97c031c20c"),
    ("qmdd", 2): (255, 933, "eda06bd8d5ee4674"),
    ("qmdd", 3): (255, 519, "5a66748ecf5459ba"),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["limdd", "qmdd"])
def test_clifford_t_outputs_match_the_record(seed, mode):
    assert _guard_record(seed, mode) == GUARD_RECORDS[mode, seed]
