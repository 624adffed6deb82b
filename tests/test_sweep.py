"""Mark-from-root sweeps: ``DiagramStore.sweep`` and ``Engine.collect``.

Most tests force a sweep at every gate boundary by patching
``engine._SWEEP_RATIO`` to 0, and check the store at every boundary by
wrapping ``Engine.collect``: ids strictly increasing, no table, cache or
root naming a node the store does not hold, and after each sweep a clean
``audit``, no Pauli-equivalent duplicates and exactly the nodes the roots
reach."""

from __future__ import annotations

import numpy as np
import pytest

import limdd.engine as engine_mod
from limdd.circuit import (
    Circuit,
    RunConfig,
    build_engine,
    compare_modes,
    dense_simulate,
    run,
)
from limdd.diagram import DiagramStore, Edge
from limdd.engine import Engine
from limdd.pauli import PauliLim, identity, zero
from limdd.states import w_state_as_circuit
from oracles import audit, cluster_circuit, pauli_duplicate_nodes

_GATES = ("h", "s", "sdg", "t", "tdg", "x", "y", "z", "cx", "cz")


def _random_circuit(n: int, depth: int, rng) -> Circuit:
    ops = []
    for _ in range(depth):
        name = str(rng.choice(_GATES[:-2] if n < 2 else _GATES))
        if name in ("cx", "cz"):
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((name, (int(a), int(b))))
        else:
            ops.append((name, (int(rng.integers(n)),)))
    return Circuit(n, tuple(ops))


def _roots(eng: Engine) -> list:
    return [eng.root, *eng._ids, *eng._gate_dd_cache.values()]


def _reached(roots) -> set:
    seen = {0}
    stack = [e.target for e in roots]
    while stack:
        v = stack.pop()
        if v.nid not in seen:
            seen.add(v.nid)
            stack += [v.low.target, v.high.target]
    return seen


def _dangling(eng: Engine) -> list:
    """Ids that a node, a unique table, a cache or a root names but the
    store does not hold (or holds as another object)."""
    store = eng.store
    held = {v.nid: v for v in store.nodes}
    ids: list = []
    nodes: list = [e.target for e in _roots(eng)]
    for v in store.nodes[1:]:
        nodes += [v.low.target, v.high.target]
    for (disc, _, _), bucket in store._table._d.items():
        ids += disc[:2]
        nodes += [node for _, node in bucket]
    for table in (store._zero_high, store._zero_low):
        ids += table
        nodes += table.values()
    ids += [nid for nid, _, _ in eng._reach_cache]
    for (_, nid), res in eng._unary_cache.items():
        ids.append(nid)
        nodes.append(res.target)
    for key, res in eng._apply_cache.items():
        ids += key
        nodes.append(res.target)
    for ((_, a, b, _, _), _, _), bucket in eng._add_cache._d.items():
        ids += (a, b)
        for _, got in bucket:
            nodes += [e.target for e in (got if isinstance(got, tuple) else (got,))]
    bad = {nid for nid in ids if nid not in held}
    bad |= {v.nid for v in nodes if held.get(v.nid) is not v}
    return sorted(bad)


@pytest.fixture
def boundaries(monkeypatch):
    """Wraps ``Engine.collect`` with the store checks; returns the list of
    (engine, store nodes, nodes kept by the last sweep, swept) per gate
    boundary."""
    collect = Engine.collect
    log: list = []

    def checked(self):
        before = self.stats.sweeps
        collect(self)
        store = self.store
        ids = [v.nid for v in store.nodes]
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert _dangling(self) == []
        swept = self.stats.sweeps > before
        if swept:
            assert set(ids) == _reached(_roots(self))
            audit(store)
            if store.group == "pauli":
                assert pauli_duplicate_nodes(store, 4) == []
        log.append((self, store.node_count(), self._kept, swept))

    monkeypatch.setattr(Engine, "collect", checked)
    return log


@pytest.fixture
def forced(monkeypatch, boundaries):
    monkeypatch.setattr(engine_mod, "_SWEEP_RATIO", 0)
    return boundaries


def _unswept(monkeypatch, c: Circuit, mode: str) -> Engine:
    with monkeypatch.context() as m:
        m.setattr(Engine, "collect", lambda self: None)
        return build_engine(c, mode)


@pytest.mark.parametrize("mode", ["limdd", "qmdd"])
@pytest.mark.parametrize("seed", range(6))
def test_forced_sweeps_on_random_clifford_t(monkeypatch, forced, mode, seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 9))
    c = _random_circuit(n, 6 * n, rng)
    plain = _unswept(monkeypatch, c, mode)
    eng = build_engine(c, mode)
    assert all(swept for *_, swept in forced) and len(forced) == len(c.ops)
    assert eng.stats.sweeps == len(c.ops)
    assert np.max(np.abs(eng.to_dense() - dense_simulate(c))) < 1e-8
    assert eng.node_count() == plain.node_count()
    assert eng.store.node_count() < plain.store.node_count()


def test_forced_sweeps_on_w_32(monkeypatch, forced):
    c = w_state_as_circuit(32)
    assert compare_modes(c, "limdd", "qmdd") < 1e-8
    assert len(forced) == 2 * len(c.ops) and all(swept for *_, swept in forced)
    for eng in {id(eng): eng for eng, *_ in forced}.values():
        assert eng.node_count() == _unswept(monkeypatch, c, eng.mode).node_count()


def test_forced_sweeps_on_a_5x5_cluster(monkeypatch, forced):
    c = cluster_circuit(5, 5)
    assert compare_modes(c, "limdd", "qmdd") < 1e-8
    lim, qm = {id(eng): eng for eng, *_ in forced}.values()
    assert lim.node_count() == lim.store.node_count() == 25
    assert qm.node_count() == _unswept(monkeypatch, c, "qmdd").node_count()


@pytest.mark.parametrize("mode", ["limdd", "qmdd"])
def test_store_bound_at_every_gate_boundary(boundaries, mode):
    # the committed ratio: the store never holds _SWEEP_RATIO times the
    # nodes the roots reached at the last sweep
    rng = np.random.default_rng(17)
    c = _random_circuit(8, 500, rng)
    eng = build_engine(c, mode)
    assert len(boundaries) == 500
    for _, store, kept, _ in boundaries:
        assert store < engine_mod._SWEEP_RATIO * kept
    assert eng.stats.sweeps == sum(swept for *_, swept in boundaries) > 1
    assert eng.stats.peak_nodes >= max(store for _, store, _, _ in boundaries)
    assert np.max(np.abs(eng.to_dense() - dense_simulate(c))) < 1e-8


@pytest.mark.parametrize("group", ["pauli", "identity"])
def test_sweep_rebuilds_the_unique_tables_under_make_edge_keys(group):
    store = DiagramStore(group)
    leaf = Edge(identity(0), store.leaf)
    a = store.make_edge(leaf, Edge(zero(0), store.leaf))          # zero high
    b = store.make_edge(Edge(zero(0), store.leaf), leaf)          # zero low
    c = store.make_edge(leaf, Edge(PauliLim(0, 0, 0, 0.5), store.leaf))
    top = store.make_edge(a, c)
    dropped = store.make_edge(b, c)
    assert store.sweep([top, b]) == store.node_count()
    assert dropped.target not in store.nodes
    for v in store.nodes[1:]:
        assert store.make_edge(v.low, v.high).target is v
    assert store.make_edge(a, c).target is top.target
    assert dropped.target.nid < store.make_edge(b, c).target.nid


def test_held_edge_keeps_its_state_across_a_sweep():
    eng = Engine(3)
    eng.run_gate("h", 3)
    eng.run_gate("cx", 3, 2)
    held = eng.root
    want = eng.to_dense()

    def measured():
        rng = np.random.default_rng(5)
        return (
            eng.squared_norm(held),
            [eng.measurement_probability(held, k, y) for k in (1, 2, 3) for y in (0, 1)],
            [eng.sample(rng, held) for _ in range(16)],
        )

    before = measured()
    eng.run_gate("t", 1)
    eng.run_gate("h", 1)
    eng.collect()
    assert held.target not in eng.store.nodes
    assert np.allclose(eng.store.to_dense(held), want)
    # the held nodes keep their weights: every measurement reads the same
    assert held.target.weight is not None
    assert measured() == before
    # the store no longer knows the dropped node: building it again makes a
    # new node with a new id
    eng.run_gate("h", 1)
    eng.run_gate("tdg", 1)
    assert np.allclose(eng.to_dense(), want)
    assert eng.root.target.nid > held.target.nid


def test_stats_report_sweeps_and_nodes_created():
    c = _random_circuit(5, 60, np.random.default_rng(4))
    stats = run(RunConfig(mode="limdd", stats=True), c)["stats"]
    assert stats["sweeps"] >= 1
    assert stats["nodes_created"] > stats["store_nodes"] >= stats["node_count"]
