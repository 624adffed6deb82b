"""State constructors versus dense oracles and structural claims."""

from __future__ import annotations

import math

import numpy as np
import pytest

import limdd.pauli as pl
from limdd.circuit import build_engine
from limdd.states import (
    Coset,
    Graph,
    StateError,
    cluster_state,
    coset_state,
    dicke_dense,
    graph_state,
    stabilizer_state,
    w_state_as_circuit,
)
from oracles import random_clifford_circuit


def graph_dense(g: Graph) -> np.ndarray:
    """Direct evaluation of the (-1)^{edges inside x} sum, vertex 0 leftmost."""
    n = g.n
    vec = np.zeros(1 << n, dtype=complex)
    for idx in range(1 << n):
        f = 0
        for a, b in g.edges:
            f += ((idx >> (n - 1 - a)) & 1) * ((idx >> (n - 1 - b)) & 1)
        vec[idx] = (-1.0) ** f
    return vec / math.sqrt(1 << n)


def random_graph(rng, n):
    edges = set()
    if n > 1:
        for _ in range(int(rng.integers(0, 2 * n))):
            a, b = rng.choice(n, size=2, replace=False)
            edges.add((int(min(a, b)), int(max(a, b))))
    return Graph(n, frozenset(edges))


def coset_members(c: Coset):
    span = {0}
    for s in c.basis:
        row = int(s, 2)
        span |= {v ^ row for v in span}
    off = int(c.offset, 2)
    return {v ^ off for v in span}


def test_single_vertex_is_plus():
    eng = graph_state(Graph(1))
    assert np.allclose(eng.to_dense(), np.full(2, 1 / math.sqrt(2)), atol=1e-12)


def test_two_vertex_edge_amplitudes():
    eng = graph_state(Graph(2, frozenset({(0, 1)})))
    want = np.array([1, 1, 1, -1], dtype=complex) / 2.0
    assert np.allclose(eng.to_dense(), want, atol=1e-12)


def test_path_graph_tower_structure():
    g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    eng = graph_state(g)
    assert np.allclose(eng.to_dense(), graph_dense(g), atol=1e-12)
    assert eng.node_count() == 4
    # high labels stay Z-strings over the lower-level neighbour
    v = eng.root.target
    expected_z = [4, 2, 1, 0]
    for want in expected_z:
        lbl = v.high.label
        assert lbl.x == 0 and lbl.z == want and lbl.scalar == 1.0
        v = v.low.target


def test_random_graph_states_match_dense():
    rng = np.random.default_rng(40)
    for _ in range(15):
        n = int(rng.integers(1, 8))
        g = random_graph(rng, n)
        eng = graph_state(g)
        assert np.max(np.abs(eng.to_dense() - graph_dense(g))) < 1e-12
        assert eng.node_count() == n
        eng.store.audit()


def test_graph_state_gate_route_agrees():
    rng = np.random.default_rng(41)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        g = random_graph(rng, n)
        direct = graph_state(g)
        via_gates = graph_state(g, mode="qmdd")
        assert np.max(np.abs(direct.to_dense() - via_gates.to_dense())) < 1e-10
        assert via_gates.node_count() >= direct.node_count()


def test_gate_constructors_keep_the_store_bounded():
    # graph_state in qmdd mode and stabilizer_state sweep after every gate,
    # so the store ends within the sweep ratio of what the last sweep kept
    from limdd.engine import _SWEEP_RATIO

    rng = np.random.default_rng(47)
    engines = [
        cluster_state(6, 6, mode="qmdd"),
        stabilizer_state(24, random_clifford_circuit(24, rng, 200)),
    ]
    for eng in engines:
        assert eng.stats.sweeps > 1
        assert eng.store.node_count() < _SWEEP_RATIO * eng._kept
    assert engines[0].node_count() == 1725
    assert engines[1].node_count() == 24
    engines[1].store.audit()


def test_graph_validation():
    with pytest.raises(StateError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(StateError):
        Graph(2, frozenset({(0, 5)}))
    with pytest.raises(StateError):
        Graph(0)


def test_cluster_state_small_grid():
    eng = cluster_state(2, 2)
    want = graph_dense(Graph(4, frozenset({(0, 1), (2, 3), (0, 2), (1, 3)})))
    assert np.allclose(eng.to_dense(), want, atol=1e-12)
    assert eng.node_count() == 4


def test_cluster_grid_counts():
    for k in (2, 3, 4):
        assert cluster_state(k, k).node_count() == k * k
    with pytest.raises(StateError):
        cluster_state(0, 3)


def test_coset_examples():
    v0 = coset_state(Coset(1)).to_dense()
    assert np.allclose(v0, [1.0, 0.0], atol=1e-12)
    rep = coset_state(Coset(2, ("11",))).to_dense()
    assert np.allclose(rep, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)
    single = coset_state(Coset(2, (), "10")).to_dense()
    assert np.allclose(single, [0, 0, 1, 0], atol=1e-12)


def test_random_cosets_support():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, n + 1))
        basis = []
        seen = set()
        while len(basis) < k:
            s = "".join(str(b) for b in rng.integers(0, 2, size=n))
            members = coset_members(Coset(n, tuple(basis)))
            if int(s, 2) not in members:
                basis.append(s)
        offset = "".join(str(b) for b in rng.integers(0, 2, size=n))
        c = Coset(n, tuple(basis), offset)
        eng = coset_state(c)
        vec = eng.to_dense()
        members = coset_members(c)
        amp = 1.0 / math.sqrt(len(members))
        for idx in range(1 << n):
            want = amp if idx in members else 0.0
            assert abs(vec[idx] - want) < 1e-12
        eng.store.audit()


def test_coset_validation():
    with pytest.raises(StateError):
        Coset(2, ("1",))
    with pytest.raises(StateError):
        Coset(2, ("12",))
    with pytest.raises(StateError):
        coset_state(Coset(3, ("101", "011", "110")))  # dependent triple


def test_stabilizer_state_empty_circuit():
    eng = stabilizer_state(3, [])
    vec = eng.to_dense()
    assert vec[0] == 1.0 and not np.any(vec[1:])
    assert eng.node_count() == 3


def test_stabilizer_state_ghz_label():
    n = 3
    gates = [("h", n)] + [("cx", k, k - 1) for k in range(n, 1, -1)]
    eng = stabilizer_state(n, gates)
    want = np.zeros(8, dtype=complex)
    want[0] = want[7] = 1 / math.sqrt(2)
    assert np.allclose(eng.to_dense(), want, atol=1e-12)
    hl = eng.root.target.high.label
    assert hl.x == 0b11 and hl.z == 0 and hl.scalar == 1.0


def test_stabilizer_states_are_towers():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        eng = stabilizer_state(n, random_clifford_circuit(n, rng, 3 * n))
        assert eng.node_count() == n
        eng.store.audit()


def test_stabilizer_state_rejects_non_clifford():
    with pytest.raises(StateError):
        stabilizer_state(2, [("t", 1)])
    for qubit in ("1", None):
        with pytest.raises(StateError, match="bad qubits"):
            stabilizer_state(2, [("h", qubit)])


def test_w_circuit_structure():
    ops = w_state_as_circuit(8).ops
    names = [name for name, _ in ops]
    assert names[:3] == ["h"] * 3
    assert names[3:8] == ["mcx"] * 5
    assert names[8:] == ["cx"] * 9
    for _, qs in ops[3:8]:
        assert len(qs[1:]) == 3   # every register-A qubit is a control


def test_w_circuit_rejects_non_powers():
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(StateError):
            w_state_as_circuit(bad)


def test_w_state_amplitudes():
    for n in (2, 4, 8):
        eng = build_engine(w_state_as_circuit(n), "limdd")
        vec = eng.to_dense()
        want = np.zeros(1 << n, dtype=complex)
        for k in range(n):
            want[1 << k] = 1 / math.sqrt(n)
        assert np.max(np.abs(vec - want)) < 1e-9
        assert eng.stats.peak_nodes <= 4 * n * n


def test_dicke_examples():
    d31 = dicke_dense(3, 1)
    want = np.zeros(8, dtype=complex)
    want[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(d31, want, atol=1e-12)
    d0 = dicke_dense(5, 0)
    assert d0[0] == 1.0 and not np.any(d0[1:])


def test_dicke_norm_and_flip():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        w = int(rng.integers(0, n + 1))
        vec = dicke_dense(n, w)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        flipped = vec[::-1].copy()  # X on every qubit reverses the index
        assert np.allclose(flipped, dicke_dense(n, n - w), atol=1e-12)


def test_dicke_validation():
    with pytest.raises(StateError):
        dicke_dense(15, 1)
    with pytest.raises(StateError):
        dicke_dense(4, 5)
