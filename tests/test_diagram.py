"""Diagram store: make_edge semantics, canonicity, stabilizer machinery."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limdd.pauli as pl
from limdd.diagram import DiagramError, DiagramStore, Edge, ScalarKeyedTable
from limdd.engine import Engine
from oracles import (
    apply_lim_dense,
    audit,
    brute_stabilizer_elements,
    clifford_circuit_matrix,
    edge_from_dense,
    enumerate_group,
    from_text,
    group_keys,
    is_identity_string,
    lex_cmp,
    pauli_duplicate_nodes,
    random_clifford_circuit,
    random_stabilizer_genset,
)


def random_vec(rng, n, zero_frac=0.0):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    if zero_frac:
        v[rng.random(1 << n) < zero_frac] = 0.0
        if not np.any(v):
            v[int(rng.integers(0, 1 << n))] = 1.0
    return v


def stabilizer_vec(rng, n, depth=None):
    """Dense state of a random h/s/cx circuit, exact zeros restored."""
    circ = random_clifford_circuit(n, rng, depth or 3 * n)
    vec = clifford_circuit_matrix(n, circ)[:, 0].copy()
    vec[np.abs(vec) < 1e-12] = 0.0
    return vec


def random_pauli(rng, n, scalar_pool=(1.0, -1.0, 1j, -1j)):
    return pl.PauliLim(
        n,
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 1 << n)),
        scalar_pool[int(rng.integers(0, len(scalar_pool)))],
    )


def lex_smallest(cands):
    return functools.reduce(lambda a, b: b if lex_cmp(b, a) < 0 else a, cands)


def assert_lim_close(a, b, tol=1e-9):
    assert a.x == b.x and a.z == b.z
    assert abs(a.scalar - b.scalar) <= tol * max(1.0, abs(b.scalar))


# ---------------------------------------------------------------------------
# construction semantics


def test_basis_state_node():
    store = DiagramStore()
    e = store.make_edge(
        Edge(pl.identity(0), store.leaf), Edge(pl.zero(0), store.leaf)
    )
    v = e.target
    assert pl.is_zero(v.high.label) and v.high.target is v.low.target
    assert e.label == pl.identity(1)
    np.testing.assert_allclose(store.to_dense(e), [1, 0])
    # |1> reuses the same node behind an X correction
    f = store.make_edge(
        Edge(pl.zero(0), store.leaf), Edge(pl.identity(0), store.leaf)
    )
    assert f.target is v
    assert (f.label.x, f.label.z) == (1, 0)
    np.testing.assert_allclose(store.to_dense(f), [0, 1])
    assert store.node_count() == 1
    assert group_keys(store.get_stabilizer_gen_set(v)) == {(0, 0, 1), (0, 1, 1)}


def test_make_edge_round_trip_random():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for zero_frac in (0.0, 0.3, 0.6):
            store = DiagramStore()
            for _ in range(6):
                vec = random_vec(rng, n, zero_frac)
                e = edge_from_dense(store, vec)
                np.testing.assert_allclose(store.to_dense(e), vec, atol=1e-10)
            audit(store)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.sampled_from([0.0, 1.0, -1.0, 0.5, 1j, -2.0, 0.25j]),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
)
def test_make_edge_round_trip_property(amps):
    vec = np.array(amps, dtype=complex)
    if not np.any(vec):
        vec[0] = 1.0
    store = DiagramStore()
    e = edge_from_dense(store, vec)
    np.testing.assert_allclose(store.to_dense(e), vec, atol=1e-12)
    audit(store)


def test_make_edge_arbitrary_labels():
    # direct postcondition: <B_root, v> == |0>|e0> + |1>|e1> for labelled inputs
    rng = np.random.default_rng(23)
    for n in range(1, 5):
        store = DiagramStore()
        pool = []
        for _ in range(5):
            pool.append(edge_from_dense(store, random_vec(rng, n, 0.2)))
            pool.append(edge_from_dense(store, stabilizer_vec(rng, n)))
        for _ in range(40):
            e0 = pool[int(rng.integers(0, len(pool)))]
            e1 = pool[int(rng.integers(0, len(pool)))]
            a = pl.mul(random_pauli(rng, n), pl.PauliLim(n, 0, 0, 0.5 + rng.random()))
            b = random_pauli(rng, n)
            if rng.integers(0, 4) == 0:
                b = pl.zero(n)
            f0 = Edge(a, e0.target)
            f1 = Edge(b, e1.target)
            got = store.make_edge(f0, f1)
            want = np.concatenate(
                [
                    apply_lim_dense(a, store.to_dense(Edge(pl.identity(n), e0.target))),
                    apply_lim_dense(b, store.to_dense(Edge(pl.identity(n), e1.target))),
                ]
            )
            np.testing.assert_allclose(store.to_dense(got), want, atol=1e-9)
        audit(store)


def test_make_edge_rejects_zero_vector():
    store = DiagramStore()
    with pytest.raises(DiagramError):
        store.make_edge(Edge(pl.zero(0), store.leaf), Edge(pl.zero(0), store.leaf))


# ---------------------------------------------------------------------------
# follow / amplitude


def test_follow_identity_label_routes_low():
    store = DiagramStore()
    e = edge_from_dense(store, np.array([1.0, 0, 0.5, 0.25]))
    v = e.target
    got = store.follow(Edge(pl.identity(2), v), 0)
    assert got.target is v.low.target
    assert got.label == pl.identity(1)


def test_follow_antidiagonal_label_routes_high():
    store = DiagramStore()
    vec = np.array([1.0, 0.5, 0.25, 0.125])
    e = edge_from_dense(store, vec)
    lab = pl.single(2, 2, "X")
    # X on the top qubit: branch 0 of X|v> is the high child of v
    got0 = store.follow(Edge(lab, e.target), 0)
    dense = apply_lim_dense(lab, store.to_dense(Edge(pl.identity(2), e.target)))
    np.testing.assert_allclose(store.to_dense(got0), dense[:2], atol=1e-12)
    assert got0.target is e.target.high.target


def test_follow_matches_dense_slices():
    # every top letter of the followed label, both branches, non-unit
    # scalars, and nodes with and without a zero high branch
    rng = np.random.default_rng(97)
    store = DiagramStore()
    letters = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    zero_branches = 0
    for n in (1, 2, 3, 4):
        nodes = [
            edge_from_dense(store, random_vec(rng, n)).target,
            edge_from_dense(store, stabilizer_vec(rng, n)).target,
        ]
        w = edge_from_dense(store, random_vec(rng, n - 1)).target
        nodes.append(store.make_edge(Edge(pl.identity(n - 1), w), Edge(pl.zero(n - 1), w)).target)
        for v in nodes:
            dense_v = store.to_dense(Edge(pl.identity(n), v))
            for xb, zb in letters.values():
                rest = int(rng.integers(0, 1 << (n - 1)))
                scalar = complex(rng.normal(), rng.normal())
                a = pl.PauliLim(
                    n, rest | (xb << (n - 1)), int(rng.integers(0, 1 << (n - 1))) | (zb << (n - 1)), scalar
                )
                want = apply_lim_dense(a, dense_v)
                for b in (0, 1):
                    got = store.follow(Edge(a, v), b)
                    assert got.target.index == n - 1
                    half = want[b << (n - 1):(b + 1) << (n - 1)]
                    np.testing.assert_allclose(store.to_dense(got), half, atol=1e-12)
                    zero_branches += pl.is_zero(got.label)
    assert zero_branches


def test_follow_on_leaf_errors():
    store = DiagramStore()
    with pytest.raises(DiagramError):
        store.follow(Edge(pl.identity(0), store.leaf), 0)


def test_amplitude_matches_dense():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        store = DiagramStore()
        for _ in range(4):
            vec = random_vec(rng, n, 0.25)
            e = edge_from_dense(store, vec)
            for idx in range(1 << n):
                bits = format(idx, f"0{n}b")
                assert abs(store.amplitude(e, bits) - vec[idx]) < 1e-10


def test_amplitude_length_mismatch():
    store = DiagramStore()
    e = edge_from_dense(store, np.array([1.0, 2.0]))
    with pytest.raises(DiagramError):
        store.amplitude(e, "01")
    # a character or entry other than 0 and 1 is a DiagramError too
    eng = Engine(3)
    for bits in ("0a1", "01-", "0 1", "0.1", [0, 2, 1], [0, 0.5, 1], [0, None, 1]):
        with pytest.raises(DiagramError):
            eng.amplitude(bits)
    assert eng.amplitude([0, 0, 0]) == eng.amplitude("000") == 1.0


def test_three_qubit_paper_figure_state():
    # f(b3,b2,b1) with f(0,1,0)=f(1,0,0)=1/2, f(1,1,0)=-1/sqrt(2)
    vec = np.array([0, 0, 0.5, 0, 0.5, 0, -1 / math.sqrt(2), 0], dtype=complex)
    store = DiagramStore()
    e = edge_from_dense(store, vec)
    assert abs(store.amplitude(e, "110") - (-1 / math.sqrt(2))) < 1e-12
    assert abs(store.amplitude(e, "010") - 0.5) < 1e-12
    for idx in range(8):
        assert abs(store.amplitude(e, format(idx, "03b")) - vec[idx]) < 1e-12


def test_ghz_tower_structure():
    store = DiagramStore()
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    e = edge_from_dense(store, vec)
    assert store.node_count() == 3
    top = e.target.high.label
    assert (top.x, top.z) == (0b11, 0) and abs(top.scalar - 1.0) < 1e-12
    assert abs(store.amplitude(e, "111") - vec[7]) < 1e-12
    g = store.get_stabilizer_gen_set(e.target)
    want = group_keys(
        pl.GeneratorSet(
            3,
            [
                from_text("XXX"),
                from_text("ZZI"),
                from_text("IZZ"),
            ],
        )
    )
    assert group_keys(g) == want


# ---------------------------------------------------------------------------
# canonicity


def test_pauli_equivalent_states_share_node():
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        store = DiagramStore()
        for _ in range(8):
            vec = random_vec(rng, n, 0.3)
            p = random_pauli(rng, n, scalar_pool=(1.0, -1.0, 1j, -1j, 2.0, 0.5j))
            e = edge_from_dense(store, vec)
            f = edge_from_dense(store, apply_lim_dense(p, vec))
            assert f.target is e.target
            iso = pl.mul(f.label, pl.inverse(e.label))
            np.testing.assert_allclose(
                apply_lim_dense(iso, store.to_dense(e)), store.to_dense(f), atol=1e-9
            )


def test_distinct_states_get_distinct_nodes():
    rng = np.random.default_rng(37)
    store = DiagramStore()
    e = edge_from_dense(store, random_vec(rng, 3))
    f = edge_from_dense(store, random_vec(rng, 3))
    assert e.target is not f.target
    # no Pauli isomorphism maps one onto the other
    iso = pl.mul(f.label, pl.inverse(e.label))
    assert not np.allclose(
        apply_lim_dense(iso, store.to_dense(e)), store.to_dense(f), atol=1e-9
    )


def scaled_from_dense(store, vec, rng):
    """Same vector, decomposed with arbitrary scalars on the child edges."""
    vec = np.asarray(vec, dtype=complex)
    n = int(vec.shape[0]).bit_length() - 1
    if n == 0:
        return Edge(pl.PauliLim(0, 0, 0, complex(vec[0])), store.leaf)
    half = 1 << (n - 1)
    lo, hi = vec[:half], vec[half:]
    if not np.any(lo):
        e1 = scaled_from_dense(store, hi, rng)
        return store.make_edge(Edge(pl.zero(n - 1), e1.target), e1)
    if not np.any(hi):
        e0 = scaled_from_dense(store, lo, rng)
        return store.make_edge(e0, Edge(pl.zero(n - 1), e0.target))
    c0 = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    c1 = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    e0 = scaled_from_dense(store, lo / c0, rng)
    e1 = scaled_from_dense(store, hi / c1, rng)
    return store.make_edge(
        Edge(pl.scale(c0, e0.label), e0.target),
        Edge(pl.scale(c1, e1.label), e1.target),
    )


def test_same_state_same_node_and_root_label():
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        store = DiagramStore()
        for _ in range(6):
            vec = random_vec(rng, n, 0.2)
            e = edge_from_dense(store, vec)
            f = scaled_from_dense(store, vec, rng)
            assert f.target is e.target
            assert_lim_close(store.root_label(f), store.root_label(e))
            np.testing.assert_allclose(store.to_dense(f), vec, atol=1e-9)
        audit(store)


# ---------------------------------------------------------------------------
# stabilizer machinery


def test_stab_gen_set_matches_bruteforce():
    rng = np.random.default_rng(43)
    for n in range(1, 5):
        store = DiagramStore()
        vecs = [stabilizer_vec(rng, n) for _ in range(6)]
        vecs += [random_vec(rng, n, 0.0) for _ in range(2)]
        vecs += [random_vec(rng, n, 0.5) for _ in range(2)]
        for vec in vecs:
            e = edge_from_dense(store, vec)
            lab = e.label
            assert not pl.is_zero(lab)
            # stab is a property of the node, so test against the node's vector
            node_vec = store.to_dense(Edge(pl.identity(n), e.target))
            got = group_keys(store.get_stabilizer_gen_set(e.target))
            want = {
                (p.x, p.z, 1 if p.scalar.real > 0 else -1)
                for p in brute_stabilizer_elements(node_vec)
            }
            assert got == want


def test_stab_gen_set_level_one_cases():
    store = DiagramStore()
    # canonicalization folds |->, |-i> onto the |+>, |i> nodes, so the stored
    # level-one nodes only ever see the positive-phase cases
    cases = [
        (np.array([1.0, 0.0]), {(0, 0, 1), (0, 1, 1)}),      # |0> -> <Z>
        (np.array([1.0, 1.0]), {(0, 0, 1), (1, 0, 1)}),      # |+> -> <X>
        (np.array([1.0, -1.0]), {(0, 0, 1), (1, 0, 1)}),     # |-> node is |+>
        (np.array([1.0, 1j]), {(0, 0, 1), (1, 1, 1)}),       # |i> -> <Y>
        (np.array([1.0, -1j]), {(0, 0, 1), (1, 1, 1)}),      # |-i> node is |i>
        (np.array([1.0, 0.5]), {(0, 0, 1)}),                 # generic -> trivial
    ]
    for vec, want in cases:
        e = edge_from_dense(store, vec)
        assert group_keys(store.get_stabilizer_gen_set(e.target)) == want


def test_stab_level_one_scan_covers_negative_phases():
    # the swap rows of a level-one node cover forms make_edge never stores
    store = DiagramStore()
    leaf = store.leaf
    for beta, want in [
        (-1.0, {(0, 0, 1), (1, 0, -1)}),
        (-1j, {(0, 0, 1), (1, 1, -1)}),
        (0.25j, {(0, 0, 1)}),
    ]:
        g = store._node_group(1, leaf, pl.PauliLim(0, 0, 0, beta), leaf)
        assert group_keys(g) == want


def test_stab_gen_set_on_clifford_t_stores():
    # every node of stores grown by Clifford+T circuits against brute force,
    # with each way a node's group gets its rows seen at least once
    rng = np.random.default_rng(79)
    seen = dict.fromkeys(("zero high", "meet", "opposite", "same children"), 0)
    for n in (2, 3, 3, 4, 4, 4, 5):
        eng = Engine(n)
        for _ in range(3 * n):
            name = str(rng.choice(["h", "h", "s", "t", "x", "cx", "cx", "cz"]))
            if name in ("cx", "cz"):
                a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                eng.run_gate(name, int(a), int(b))
            else:
                eng.run_gate(name, int(rng.integers(1, n + 1)))
        store = eng.store
        for v in store.nodes[1:]:
            m = v.index
            node_vec = store.to_dense(Edge(pl.identity(m), v))
            want = {
                (p.x, p.z, 1 if p.scalar.real > 0 else -1)
                for p in brute_stabilizer_elements(node_vec)
            }
            assert group_keys(store.get_stabilizer_gen_set(v)) == want
            # top-qubit letters of the non-identity elements
            tops = {((x >> (m - 1)) & 1, (z >> (m - 1)) & 1) for x, z, _ in want if x or z}
            if pl.is_zero(v.high.label):
                seen["zero high"] += 1
                continue
            seen["meet"] += (0, 0) in tops
            seen["opposite"] += (0, 1) in tops
            seen["same children"] += v.low.target is v.high.target and bool(
                tops & {(1, 0), (1, 1)}
            )
    assert min(seen.values()) > 0, seen


def test_scalars_a_float_residue_apart_make_one_node():
    # (sqrt2 - 1) with imaginary parts -5.55e-17 and -2.39e-16: both must
    # rank as phase 0, not one of them just below 2 pi, or get_labels picks
    # opposite signs for them and stores two nodes
    store = DiagramStore()
    v = edge_from_dense(store, np.array([1.0, 0.5])).target
    assert not store.get_stabilizer_gen_set(v).gens
    targets = {
        store.make_edge(
            Edge(pl.identity(1), v), Edge(pl.PauliLim(1, 0, 0, lam), v)
        ).target.nid
        for lam in (
            complex(math.sqrt(2) - 1, -5.55e-17),
            complex(math.sqrt(2) - 1, -2.39e-16),
        )
    }
    assert len(targets) == 1
    assert store.node_count() == 2
    assert pauli_duplicate_nodes(store, 2) == []


def test_same_children_group_with_a_float_residue():
    # |00> + lambda|11> with lambda = i + 2.8e-16: both swap rows (X (x) h
    # through the opposite element Z, and Y (x) h) must be found
    store = DiagramStore()
    z = edge_from_dense(store, np.array([1.0, 0.0])).target
    e = store.make_edge(
        Edge(pl.identity(1), z), Edge(pl.PauliLim(1, 1, 0, 1j + 2.8e-16), z)
    )
    v = e.target
    assert v.low.target is v.high.target
    vec = store.to_dense(Edge(pl.identity(2), v))
    want = {
        (p.x, p.z, 1 if p.scalar.real > 0 else -1)
        for p in brute_stabilizer_elements(vec)
    }
    assert len(want) == 4
    assert group_keys(store.get_stabilizer_gen_set(v)) == want


@pytest.mark.parametrize("seed", [3, 33, 52])
def test_clifford_t_stores_are_canonical_under_float_scalars(seed):
    # seeds whose stores once held a Pauli-equivalent duplicate node or a
    # same-children group smaller than brute force
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    eng = Engine(n)
    for _ in range(10 * n):
        name = str(rng.choice(["h", "h", "s", "t", "tdg", "x", "cx", "cz"]))
        if name in ("cx", "cz"):
            a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            eng.run_gate(name, int(a), int(b))
        else:
            eng.run_gate(name, int(rng.integers(1, n + 1)))
    store = eng.store
    assert pauli_duplicate_nodes(store, 5) == []
    for v in store.nodes[1:]:
        if v.index > 4:
            continue
        vec = store.to_dense(Edge(pl.identity(v.index), v))
        want = {
            (p.x, p.z, 1 if p.scalar.real > 0 else -1)
            for p in brute_stabilizer_elements(vec)
        }
        assert group_keys(store.get_stabilizer_gen_set(v)) == want, v


def test_stab_cache_is_eager():
    rng = np.random.default_rng(47)
    store = DiagramStore()
    for _ in range(5):
        edge_from_dense(store, random_vec(rng, 4, 0.3))
    for v in store.nodes:
        assert v.stab is not None and v.stab.n == v.index


def test_intersect_stabilizer_groups_matches_enumeration():
    rng = np.random.default_rng(53)
    store = DiagramStore()
    for _ in range(40):
        n = int(rng.integers(1, 4))
        g0 = random_stabilizer_genset(n, rng)
        g1 = random_stabilizer_genset(n, rng)
        inter = store.intersect_stabilizer_groups(g0, g1)
        assert group_keys(inter) == group_keys(g0) & group_keys(g1)
        again = store.intersect_stabilizer_groups(g0, g1)
        if g0.rows == g1.rows:
            # same-string pairs are read off the rows, with no memo entry
            assert again.content_key() == inter.content_key()
        else:
            assert again is inter


def test_arg_lex_min_matches_enumeration():
    rng = np.random.default_rng(59)
    store = DiagramStore()
    for _ in range(150):
        n = int(rng.integers(1, 4))
        g0 = random_stabilizer_genset(n, rng)
        g1 = random_stabilizer_genset(n, rng)
        a = random_pauli(rng, n, scalar_pool=(1.0, -1.0, 1j, -1j, 0.5, 2j))
        w0, w1, val = store.arg_lex_min(g0, g1, a)
        cands = [
            pl.mul(pl.mul(a, p), q)
            for p in enumerate_group(g0)
            for q in enumerate_group(g1)
        ]
        assert_lim_close(val, lex_smallest(cands), tol=1e-12)
        assert_lim_close(pl.mul(pl.mul(a, w0), w1), val, tol=1e-12)
        assert (w0.x, w0.z, 1 if w0.scalar.real > 0 else -1) in group_keys(g0)
        assert (w1.x, w1.z, 1 if w1.scalar.real > 0 else -1) in group_keys(g1)


def test_get_labels_minimizes_eligible_set():
    rng = np.random.default_rng(61)
    for n in (1, 2):
        store = DiagramStore()
        nodes = []
        for _ in range(6):
            nodes.append(edge_from_dense(store, stabilizer_vec(rng, n)).target)
        for _ in range(60):
            v0 = nodes[int(rng.integers(0, len(nodes)))]
            v1 = v0 if rng.integers(0, 2) else nodes[int(rng.integers(0, len(nodes)))]
            a_hat = random_pauli(rng, n, scalar_pool=(1.0, -1.0, 1j, -1j, 0.5, 2.0))
            bh, _ = store.get_labels(a_hat, v0, v1)
            lam = a_hat.scalar
            p_unit = pl.PauliLim(n, a_hat.x, a_hat.z, 1.0)
            cands = []
            for x in (0, 1) if v0 is v1 else (0,):
                lam_x = lam if x == 0 else 1.0 / lam
                for sgn in (1.0, -1.0):
                    for p in enumerate_group(store.get_stabilizer_gen_set(v0)):
                        for q in enumerate_group(store.get_stabilizer_gen_set(v1)):
                            cands.append(
                                pl.scale(sgn * lam_x, pl.mul(pl.mul(p, p_unit), q))
                            )
            assert_lim_close(bh, lex_smallest(cands), tol=1e-12)
            # and the rebuilt edge reproduces the state
            e = store.make_edge(
                Edge(pl.identity(n), v0), Edge(a_hat, v1)
            )
            want = np.concatenate(
                [
                    store.to_dense(Edge(pl.identity(n), v0)),
                    apply_lim_dense(a_hat, store.to_dense(Edge(pl.identity(n), v1))),
                ]
            )
            np.testing.assert_allclose(store.to_dense(e), want, atol=1e-9)
            if v0.nid <= v1.nid:
                # otherwise make_edge swaps children and canonicalizes the
                # mirrored pair instead
                assert_lim_close(e.target.high.label, bh, tol=1e-12)


def test_get_labels_trivial_groups_reproduce_the_state():
    # generic states have the trivial stabilizer group {I}
    rng = np.random.default_rng(73)
    seen = {True: 0, False: 0}
    for n in (1, 2, 3):
        store = DiagramStore()
        nodes = [edge_from_dense(store, random_vec(rng, n)).target for _ in range(4)]
        assert not any(store.get_stabilizer_gen_set(v).gens for v in nodes)
        for _ in range(40):
            v0 = nodes[int(rng.integers(0, 4))]
            v1 = v0 if rng.integers(0, 2) else nodes[int(rng.integers(0, 4))]
            seen[v0 is v1] += 1
            a_hat = random_pauli(rng, n, scalar_pool=(1.0, -1.0, 1j, 0.5, 2.0, 0.3 - 0.7j))
            best, b_root = store.get_labels(a_hat, v0, v1)
            d0 = store.to_dense(Edge(pl.identity(n), v0))
            d1 = store.to_dense(Edge(pl.identity(n), v1))
            got = apply_lim_dense(b_root, np.concatenate([d0, apply_lim_dense(best, d1)]))
            want = np.concatenate([d0, apply_lim_dense(a_hat, d1)])
            np.testing.assert_allclose(got, want, atol=1e-9)
            p_unit = pl.PauliLim(n, a_hat.x, a_hat.z, 1.0)
            lams = (a_hat.scalar, 1.0 / a_hat.scalar) if v0 is v1 else (a_hat.scalar,)
            cands = [pl.scale(sgn * lam, p_unit) for lam in lams for sgn in (1.0, -1.0)]
            assert_lim_close(best, lex_smallest(cands), tol=1e-12)
    assert seen[True] and seen[False]
    assert not store._pair_memo


def general_labels(store, a_hat, v0, v1):
    """``get_labels`` on the double-coset route whatever the groups: the
    arg_lex_min representative, then the four-way scalar choice."""
    n = a_hat.n
    g0 = store.get_stabilizer_gen_set(v0)
    g1 = store.get_stabilizer_gen_set(v1)
    w0, w1, _ = store.arg_lex_min(g0, g1, a_hat)
    m = pl.mul(pl.mul(w0, pl.PauliLim(n, a_hat.x, a_hat.z, 1.0)), w1)
    best = choice = None
    for x, s in ((0, 0), (0, 1), (1, 0), (1, 1)) if v0 is v1 else ((0, 0), (0, 1)):
        lam_x = a_hat.scalar if x == 0 else 1.0 / a_hat.scalar
        cand = (-lam_x if s else lam_x) * m.scalar
        if best is None or pl.scalar_cmp(cand, best) < 0:
            best, choice = cand, (x, s)
    x, s = choice
    b_root = pl.tensor_top("Z" if s else "I", pl.inverse(w0))
    if x:
        b_root = pl.mul(pl.tensor_top("X", a_hat), b_root)
    return pl.PauliLim(n, m.x, m.z, best), b_root


def assert_lane_edge(store, e, a, b, v0, v1, want_high, want_root):
    high = e.target.high.label
    assert e.target.low.target is v0 and e.target.high.target is v1
    assert (high.x, high.z) == (want_high.x, want_high.z)
    assert abs(high.scalar - want_high.scalar) <= pl.EPS_EQ
    assert_lim_close(e.label, want_root, tol=pl.EPS_EQ)
    n = a.n
    want = np.concatenate(
        [
            apply_lim_dense(a, store.to_dense(Edge(pl.identity(n), v0))),
            apply_lim_dense(b, store.to_dense(Edge(pl.identity(n), v1))),
        ]
    )
    np.testing.assert_allclose(store.to_dense(e), want, atol=1e-9)
    if store.group == "pauli":
        node_vec = store.to_dense(Edge(pl.identity(n + 1), e.target))
        brute = {
            (p.x, p.z, 1 if p.scalar.real > 0 else -1)
            for p in brute_stabilizer_elements(node_vec)
        }
        assert group_keys(e.target.stab) == brute


def test_trivial_group_lane_matches_general_labels():
    # make_edge on {I}-group children (one node and two) gives the high
    # label and root of the general get_labels route, for labels of every
    # top letter; so does get_labels itself
    rng = np.random.default_rng(89)
    tops = set()
    seen = {True: 0, False: 0}
    swaps = 0
    pool = (1.0, -1.0, 1j, 0.5, 2.0, -0.5j, 0.3 - 0.7j)
    for n in (1, 2, 3):
        store = DiagramStore()
        nodes = sorted(
            (edge_from_dense(store, random_vec(rng, n)).target for _ in range(4)),
            key=lambda v: v.nid,
        )
        for _ in range(80):
            i = int(rng.integers(0, 4))
            v0, v1 = nodes[i], nodes[i if rng.integers(0, 2) else int(rng.integers(i, 4))]
            assert not (v0.stab.rows or v1.stab.rows)
            seen[v0 is v1] += 1
            a = random_pauli(rng, n, scalar_pool=pool)
            b = random_pauli(rng, n, scalar_pool=pool)
            tops.add(((a.x >> (n - 1)) & 1, (a.z >> (n - 1)) & 1))
            a_hat = pl.mul(pl.inverse(a), b)
            want_high, b_root = general_labels(store, a_hat, v0, v1)
            got_high, got_root = store.get_labels(a_hat, v0, v1)
            assert (got_high.x, got_high.z, got_high.scalar) == (want_high.x, want_high.z, want_high.scalar)
            assert_lim_close(got_root, b_root, tol=pl.EPS_EQ)
            want_root = pl.mul(pl.tensor_top("I", a), b_root)
            swaps += want_root.x >> n
            e = store.make_edge(Edge(a, v0), Edge(b, v1))
            assert_lane_edge(store, e, a, b, v0, v1, want_high, want_root)
        audit(store)
        assert not store._pair_memo
    assert len(tops) == 4 and seen[True] and seen[False] and swaps


def test_trivial_group_lane_identity_store():
    rng = np.random.default_rng(101)
    for n in (1, 2, 3):
        store = DiagramStore(group="identity")
        nodes = [edge_from_dense(store, random_vec(rng, n)).target for _ in range(3)]
        for _ in range(20):
            v0 = nodes[int(rng.integers(0, 3))]
            v1 = nodes[int(rng.integers(0, 3))]
            a = pl.PauliLim(n, 0, 0, complex(rng.normal(), rng.normal()))
            b = pl.PauliLim(n, 0, 0, complex(rng.normal(), rng.normal()))
            e = store.make_edge(Edge(a, v0), Edge(b, v1))
            # no normalization choice: the high label is a^-1 b as computed
            assert_lane_edge(
                store, e, a, b, v0, v1, pl.mul(pl.inverse(a), b), pl.tensor_top("I", a)
            )
        audit(store)
        assert not any(v.stab.rows for v in store.nodes)
        x = pl.PauliLim(n, 1, 0, 1.0)
        with pytest.raises(DiagramError):
            store.make_edge(Edge(x, nodes[0]), Edge(pl.identity(n), nodes[1]))


def _pick_scalar_by_scalar_cmp(lam, ms, same):
    """Reference: the scalar_cmp-least of the candidates in order, ties
    keeping the earlier."""
    best = choice = None
    for x, s in ((0, 0), (0, 1), (1, 0), (1, 1)) if same else ((0, 0), (0, 1)):
        lam_x = lam if x == 0 else 1.0 / lam
        cand = (-lam_x if s else lam_x) * ms
        if best is None or pl.scalar_cmp(cand, best) < 0:
            best, choice = cand, (x, s)
    return (best,) + choice


def test_pick_scalar_matches_scalar_cmp_on_adversarial_scalars():
    import limdd.diagram as diagram_mod

    eps = pl.EPS_ORD
    offsets = [0.0, 1e-16, 1e-13, 1e-12, 3e-12, 1e-11, 5e-10, eps, 1.5e-9, 2e-9,
               1e-8, 1e-7, 1e-6, 1.01e-6, 1e-5, 0.3]
    angles = [a + sign * d for a in (0.0, math.pi / 4, math.pi / 2, math.pi, 2 * math.pi)
              for d in offsets for sign in (1, -1)]
    mags = [1.0, 1 + eps / 2, 1 - eps / 2, 1 + eps, 1 - eps, 1 + 2 * eps, 1 - 2 * eps,
            1 + 1e-6, 0.5, 2.0, 1e-3]
    lams = [r * complex(math.cos(a), math.sin(a)) for r in mags for a in angles]
    lams += [1.0, -1.0, 1j, -1j, complex(1.0, -0.0), complex(-1.0, -0.0), complex(-0.0, 1.0)]
    rng = np.random.default_rng(107)
    mss = [1.0, -1.0, 1j, complex(math.cos(1e-10), -math.sin(1e-10))]
    mss += [complex(*rng.normal(size=2)) for _ in range(3)]
    for lam in lams:
        for ms in mss:
            for same in (False, True):
                got = diagram_mod._pick_scalar(lam, ms, same)
                want = _pick_scalar_by_scalar_cmp(lam, ms, same)
                assert got[1:] == want[1:], (lam, ms, same)
                assert got[0] == want[0], (lam, ms, same)


def test_arg_lex_min_on_trivial_groups_is_the_label():
    rng = np.random.default_rng(79)
    store = DiagramStore()
    for n in (1, 2, 3):
        empty = store.empty_set(n)
        a = random_pauli(rng, n, scalar_pool=(1.0, -1j, 0.5, 2.0 + 1j))
        w0, w1, val = store.arg_lex_min(empty, empty, a)
        assert w0 == pl.identity(n) and w1 == pl.identity(n) and val == a
    assert not store._pair_memo


def test_qmdd_build_never_touches_the_stabilizer_layer(monkeypatch):
    import limdd.diagram as diagram_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("gf2_eliminate called on a trivial-group store")

    monkeypatch.setattr(diagram_mod, "gf2_eliminate", forbidden)
    monkeypatch.setattr(pl, "gf2_eliminate", forbidden)
    rng = np.random.default_rng(83)
    n = 5
    eng = Engine(n, mode="qmdd")
    names = ("h", "s", "sdg", "t", "tdg", "x", "y", "z")
    for _ in range(60):
        r = rng.random()
        if r < 0.1:
            t, *cs = (int(q) + 1 for q in rng.choice(n, size=3, replace=False))
            eng.run_mcx([(q, int(rng.integers(0, 2))) for q in cs], t)
        elif r < 0.4:
            c, t = (int(q) + 1 for q in rng.choice(n, size=2, replace=False))
            eng.run_gate(("cx", "cz")[int(rng.integers(0, 2))], c, t)
        else:
            name = names[int(rng.integers(0, len(names)))]
            eng.run_gate(name, int(rng.integers(1, n + 1)))
    eng.sample(np.random.default_rng(1))
    assert eng.stats.apply_calls and eng.stats.add_calls
    assert not eng.store._pair_memo
    # every node of an identity-group store has the group {I}
    assert not any(v.stab.rows for v in eng.store.nodes)
    # and no gate wrote a Pauli factor: every nonzero label is a scalar
    labels = [eng.root.label]
    for v in eng.store.nodes[1:]:
        labels += [v.low.label, v.high.label]
    assert all(pl.is_zero(lbl) or lbl.x == lbl.z == 0 for lbl in labels)


def test_get_labels_known_cases():
    store = DiagramStore()
    v_plus = edge_from_dense(store, np.array([1.0, 1.0]) / math.sqrt(2)).target
    v_i = edge_from_dense(store, np.array([1.0, 1j]) / math.sqrt(2)).target
    assert group_keys(store.get_stabilizer_gen_set(v_plus)) == {(0, 0, 1), (1, 0, 1)}
    assert group_keys(store.get_stabilizer_gen_set(v_i)) == {(0, 0, 1), (1, 1, 1)}
    # <X> and <Y> children with a Z label collapse to an identity-string label
    bh, _ = store.get_labels(pl.single(1, 1, "Z"), v_plus, v_i)
    assert is_identity_string(bh)
    assert abs(bh.scalar - 1j) < 1e-12
    e = store.make_edge(
        Edge(pl.identity(1), v_plus), Edge(pl.single(1, 1, "Z"), v_i)
    )
    # node vectors are unnormalized: (1,1) and Z(1,i) = (1,-i)
    np.testing.assert_allclose(
        store.to_dense(e), np.array([1.0, 1.0, 1.0, -1j]), atol=1e-12
    )

    # equal children, hatA = 2I: the branch-swap option wins with scalar 1/2
    v0 = edge_from_dense(store, np.array([1.0, 0.0])).target
    bh2, _ = store.get_labels(pl.PauliLim(1, 0, 0, 2.0), v0, v0)
    assert is_identity_string(bh2) and abs(bh2.scalar - 0.5) < 1e-12

    # degenerate groups, distinct children: only the sign is free
    va = edge_from_dense(store, np.array([1.0, 0.3])).target
    vb = edge_from_dense(store, np.array([1.0, 0.7])).target
    bh3, _ = store.get_labels(pl.scale(-2.0, pl.single(1, 1, "X")), va, vb)
    assert (bh3.x, bh3.z) == (1, 0) and abs(bh3.scalar - 2.0) < 1e-12


def test_root_label_known_case():
    store = DiagramStore()
    v0 = edge_from_dense(store, np.array([1.0, 0.0])).target
    rl = store.root_label(Edge(pl.scale(-1.0, pl.single(1, 1, "Z")), v0))
    assert is_identity_string(rl) and abs(rl.scalar + 1.0) < 1e-12
    with pytest.raises(DiagramError):
        store.root_label(Edge(pl.zero(1), v0))


# ---------------------------------------------------------------------------
# scalar-keyed table


def test_scalar_table_exact_and_probed_hits():
    t = ScalarKeyedTable()
    t.put(("k",), 1.0 + 0.0j, "a")
    assert t.get(("k",), 1.0 + 0.0j) == "a"
    assert t.get(("k",), 1.0 + 4e-13) == "a"
    assert t.get(("k",), 1.0 + 1e-9) is None
    assert t.get(("other",), 1.0 + 0.0j) is None


def test_scalar_table_cell_boundary():
    t = ScalarKeyedTable()
    r0 = 1.0 + 0.49999999e-9     # just under a cell boundary
    t.put(("k",), r0 + 0j, "a")
    assert t.get(("k",), r0 + 4e-13 + 0j) == "a"


def test_scalar_table_phase_wraparound():
    t = ScalarKeyedTable()
    c_lo = complex(np.exp(1j * (2 * np.pi - 1e-13)))
    c_hi = complex(np.exp(1j * 1e-13))
    t.put(("k",), c_lo, "a")
    assert t.get(("k",), c_hi) == "a"


def test_scalar_table_small_magnitude():
    # phases 5e-9 apart, yet only 5e-13 apart in value: within the tolerance
    t = ScalarKeyedTable()
    s = 1e-4 + 0j
    t.put(("k",), s, "a")
    assert t.get(("k",), s * complex(np.exp(5e-9j))) == "a"
    assert t.get(("k",), s + 2e-12) is None


def test_scalar_table_large_magnitude():
    # the tolerance 1e-12 * |s| = 1e-8 spans ten cells each way
    t = ScalarKeyedTable()
    s = 1e4 * complex(np.exp(0.3j))
    t.put(("k",), s, "a")
    for d in (7e-9, -7e-9j, 6e-9 + 6e-9j, -6e-9 - 6e-9j):
        assert t.get(("k",), s + d) == "a"
    assert t.get(("k",), s + 2e-8) is None


# ---------------------------------------------------------------------------
# identity-label (qmdd) mode


def test_identity_mode_round_trip_and_shape():
    rng = np.random.default_rng(67)
    for n in range(1, 6):
        store = DiagramStore(group="identity")
        for _ in range(6):
            vec = random_vec(rng, n, 0.3)
            e = edge_from_dense(store, vec)
            np.testing.assert_allclose(store.to_dense(e), vec, atol=1e-10)
            assert is_identity_string(e.label)
        audit(store)
        for v in store.nodes:
            assert len(store.get_stabilizer_gen_set(v)) == 0
            if v.nid:
                for child in (v.low, v.high):
                    if not pl.is_zero(child.label):
                        assert is_identity_string(child.label)


def test_identity_mode_keeps_zero_low_edges():
    store = DiagramStore(group="identity")
    e = edge_from_dense(store, np.array([0.0, 1.0]))
    assert pl.is_zero(e.target.low.label)
    assert e.target.high.label == pl.identity(0)
    np.testing.assert_allclose(store.to_dense(e), [0, 1])


def test_identity_mode_is_coarser_than_pauli():
    # GHZ3: the Pauli store folds both branches, the scalar store cannot
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    limdd = DiagramStore()
    edge_from_dense(limdd, vec)
    qmdd = DiagramStore(group="identity")
    edge_from_dense(qmdd, vec)
    assert limdd.node_count() == 3
    assert qmdd.node_count() == 5
    audit(qmdd)


def test_identity_mode_merges_proportional_branches():
    store = DiagramStore(group="identity")
    vec = np.array([1.0, 2.0, 2.0, 4.0])   # product state, halves proportional
    e = edge_from_dense(store, vec)
    assert e.target.low.target is e.target.high.target
    assert abs(e.target.high.label.scalar - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# diagnostics


def test_audit_catches_corruption():
    store = DiagramStore()
    e = edge_from_dense(store, np.array([1.0, 0.5]))
    audit(store)
    v = e.target
    v.low = Edge(pl.PauliLim(0, 0, 0, 2.0), store.leaf)
    with pytest.raises(DiagramError):
        audit(store)


def test_audit_re_derives_each_group():
    # a node whose stored group is not the one its children give fails the
    # audit, whether rows are missing or a sign is wrong
    store = DiagramStore()
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    v = edge_from_dense(store, vec).target
    good = v.stab
    assert good.rows
    for wrong in (
        store.empty_set(v.index),
        pl.GeneratorSet.packed(good.n, good.rows, good.signs ^ 1),
    ):
        v.stab = wrong
        with pytest.raises(DiagramError):
            audit(store)
    v.stab = good
    audit(store)


def test_to_dot_smoke():
    store = DiagramStore()
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    e = edge_from_dense(store, vec)
    dot = store.to_dot(e)
    assert dot.startswith("digraph")
    assert "rank=same" in dot
    assert "style=dashed" in dot and "style=solid" in dot
    assert "XX" in dot
