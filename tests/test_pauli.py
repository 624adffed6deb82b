"""Pauli algebra layer against dense matrices and explicit enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limdd.pauli as pl
from limdd.diagram import DiagramStore
from oracles import (
    clifford_circuit_matrix,
    cx_matrix,
    enumerate_group,
    from_text,
    group_keys,
    lex_cmp,
    lim_to_matrix,
    random_stabilizer_genset,
)


def random_lim(rng, n, scalar_pool="any"):
    x = int(rng.integers(0, 1 << n))
    z = int(rng.integers(0, 1 << n))
    if scalar_pool == "sign":
        s = -1.0 if rng.integers(0, 2) else 1.0
    elif scalar_pool == "unit":
        s = np.exp(2j * np.pi * rng.random())
    else:
        s = (rng.normal() + 1j * rng.normal()) or 1.0
    return pl.PauliLim(n, x, z, s)


lim_strategy = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.sampled_from([1.0, -1.0, 1j, -1j, 0.5, -2.0 + 1.0j]),
    )
).map(lambda t: pl.PauliLim(*t))


def test_single_letter_matrices():
    np.testing.assert_allclose(
        lim_to_matrix(pl.single(1, 1, "Y")), np.array([[0, -1j], [1j, 0]])
    )
    np.testing.assert_allclose(
        lim_to_matrix(from_text("XZ")),
        np.kron(np.array([[0, 1], [1, 0]]), np.diag([1, -1])).astype(complex),
    )


def test_mul_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a, b = random_lim(rng, n), random_lim(rng, n)
        got = lim_to_matrix(pl.mul(a, b))
        want = lim_to_matrix(a) @ lim_to_matrix(b)
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(lim_strategy, lim_strategy, lim_strategy)
def test_mul_associative(a, b, c):
    n = max(a.n, b.n, c.n)

    def pad(p):
        return pl.PauliLim(n, p.x, p.z, p.scalar)

    a, b, c = pad(a), pad(b), pad(c)
    left = pl.mul(pl.mul(a, b), c)
    right = pl.mul(a, pl.mul(b, c))
    assert left.x == right.x and left.z == right.z
    assert abs(left.scalar - right.scalar) <= 1e-12 * max(1.0, abs(left.scalar))


def test_sign_product_closure():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        a = random_lim(rng, n, "sign")
        b = random_lim(rng, n, "sign")
        s = pl.mul(a, b).scalar
        assert s in (1 + 0j, -1 + 0j, 1j, -1j)


def test_inverse():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_lim(rng, int(rng.integers(1, 5)))
        prod = pl.mul(a, pl.inverse(a))
        assert prod.is_identity_string()
        assert abs(prod.scalar - 1.0) <= 1e-12


def test_conjugate_group_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = random_lim(rng, n)
        g = random_stabilizer_genset(n, rng)
        got = pl.conjugate_group(a, g)
        assert got.rows == g.rows and got.reduced == g.reduced
        ma = lim_to_matrix(a)
        for h, r in zip(got.gens, g.gens):
            want = ma @ lim_to_matrix(r) @ np.linalg.inv(ma)
            np.testing.assert_allclose(lim_to_matrix(h), want, atol=1e-9)


def test_lex_order_examples():
    assert lex_cmp(from_text("X"), from_text("Y")) < 0
    assert lex_cmp(from_text("ZI"), from_text("ZX")) < 0
    assert lex_cmp(from_text("Z"), from_text("X")) < 0  # X block first
    assert lex_cmp(from_text("X"), from_text("-X")) < 0  # theta tie-break
    assert lex_cmp(from_text("0.5*X"), from_text("X")) < 0


def test_lex_order_total():
    rng = np.random.default_rng(17)
    lims = [random_lim(rng, 3) for _ in range(40)]

    def key(a):
        theta = math.atan2(a.scalar.imag, a.scalar.real) % (2 * math.pi)
        return (a.x, a.z, round(abs(a.scalar), 6), round(theta, 6))

    for a in lims:
        for b in lims:
            c = lex_cmp(a, b)
            assert c == -lex_cmp(b, a)
            if key(a) < key(b):
                assert c < 0
            elif key(a) > key(b):
                assert c > 0


def test_format_and_parse():
    assert pl.format_lim(from_text("-i*XZY")) == "-i*XZY"
    assert pl.format_lim(pl.identity(3)) == "III"
    assert pl.format_lim(pl.PauliLim(2, 0b10, 0b01, -1.0)) == "-XZ"
    assert pl.format_lim(pl.PauliLim(1, 1, 1, 1j)) == "i*Y"
    assert pl.format_lim(pl.PauliLim(2, 0, 0b11, 0.5)) == "0.5*ZZ"
    assert pl.format_lim(pl.zero(3)) == "0"
    a = from_text("0.5*XX")
    assert a.scalar == 0.5 and a.x == 0b11 and a.z == 0


def test_zero_and_errors():
    with pytest.raises(pl.PauliError):
        pl.PauliLim(2, 0, 0, 0.0)
    with pytest.raises(pl.PauliError):
        pl.single(2, 3, "X")
    assert pl.is_zero(pl.mul(pl.zero(2), pl.identity(2)))
    assert pl.is_zero(pl.scale(0.0, pl.identity(2)))
    with pytest.raises(pl.PauliError):
        pl.inverse(pl.zero(2))


# ---------------------------------------------------------------------------
# generator sets


def test_rref_preserves_group():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        g = random_stabilizer_genset(n, rng)
        r = pl.rref(g)
        assert group_keys(g) == group_keys(r)
        # pivots strictly decreasing, eliminated everywhere else
        keys = [row.string_key() for row in r.gens]
        pivs = [k.bit_length() - 1 for k in keys]
        assert pivs == sorted(pivs, reverse=True) and len(set(pivs)) == len(pivs)
        for i, k in enumerate(keys):
            for j, p in enumerate(pivs):
                if i != j:
                    assert not (k >> p) & 1


def test_rref_detects_minus_identity():
    g = pl.GeneratorSet(2, [from_text("XI"), from_text("-XI")])
    with pytest.raises(pl.NotAStabilizerGroupError):
        pl.rref(g)


def selected_product(gens, mask, n):
    """The product of the commuting generators whose bits ``mask`` sets."""
    res = pl.identity(n)
    for i, g in enumerate(gens):
        if (mask >> i) & 1:
            res = pl.mul(res, g)
    return res


def test_rref_insert_matches_rref():
    # a reduced basis plus up to three commuting rows (pivots hidden under
    # basis elements), sometimes with a dependent row that multiplies to +I
    # (dropped) or to -I (an error): the insertion gives rref's exact rows
    rng = np.random.default_rng(71)
    dropped = raised = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        full = random_stabilizer_genset(n, rng)
        j = int(rng.integers(0, len(full) + 1))
        basis = pl.rref(pl.GeneratorSet(n, full.gens[:j]))
        rows = [
            pl.mul(r, selected_product(basis.gens, int(rng.integers(0, 1 << len(basis))), n))
            for r in full.gens[j:j + 3]
        ]
        kind = int(rng.integers(0, 3))   # 0: as is, 1: +I dependent, 2: -I dependent
        pool = list(basis.gens) + rows
        if kind and pool and len(rows) < 3:
            dep = selected_product(pool, int(rng.integers(1, 1 << len(pool))), n)
            rows.insert(int(rng.integers(0, len(rows) + 1)), pl.neg(dep) if kind == 2 else dep)
        try:
            want = pl.rref(pl.GeneratorSet(n, list(basis.gens) + rows))
        except pl.NotAStabilizerGroupError:
            with pytest.raises(pl.NotAStabilizerGroupError):
                pl.rref_insert(basis, rows)
            raised += 1
            continue
        got = pl.rref_insert(basis, rows)
        assert [(g.x, g.z, g.scalar) for g in got] == [(g.x, g.z, g.scalar) for g in want]
        assert all(g.n == n for g in got)
        dropped += len(got) < len(basis) + len(rows)
    assert dropped > 10 and raised > 10


def test_division_remainder_minimal():
    # dividing by <g> is arg_lex_min against the empty right-hand group
    rng = np.random.default_rng(29)
    store = DiagramStore()
    for _ in range(40):
        n = int(rng.integers(1, 4))
        g = random_stabilizer_genset(n, rng)
        a = random_lim(rng, n)
        h, _, rem = store.arg_lex_min(g, store.empty_set(n), a)
        got = pl.mul(a, h)
        assert (got.x, got.z) == (rem.x, rem.z)
        assert abs(got.scalar - rem.scalar) <= 1e-12 * max(1.0, abs(rem.scalar))
        best = min(pl.mul(a, el).string_key() for el in enumerate_group(g))
        assert rem.string_key() == best


def test_membership_vs_enumeration():
    # a in <g> iff the coset a<g> has +I as its minimum; a's string is in
    # the span iff the minimum has the identity string
    rng = np.random.default_rng(31)
    store = DiagramStore()
    for _ in range(60):
        n = int(rng.integers(1, 4))
        g = random_stabilizer_genset(n, rng)
        keys = group_keys(g)
        a = random_lim(rng, n, "sign")
        _, _, rem = store.arg_lex_min(g, store.empty_set(n), a)
        in_group = (a.x, a.z, 1 if a.scalar.real > 0 else -1) in keys
        assert (rem.is_identity_string() and rem.scalar == 1) == in_group
        in_span = any((a.x, a.z) == (x, z) for (x, z, _) in keys)
        assert rem.is_identity_string() == in_span


def test_gf2_eliminate_vs_brute_force():
    rng = np.random.default_rng(71)
    for _ in range(300):
        width = 2 * int(rng.integers(1, 5))  # check strings of n <= 4 qubits
        count = int(rng.integers(0, 7))
        keys = [int(rng.integers(0, 1 << width)) for _ in range(count)]
        rows, kernel = pl.gf2_eliminate(keys)

        def xor_of(sel):
            out = 0
            for i, k in enumerate(keys):
                if (sel >> i) & 1:
                    out ^= k
            return out

        def span(vecs):
            out = {0}
            for v in vecs:
                out |= {u ^ v for u in out}
            return out

        row_keys = [k for k, _ in rows]
        assert span(row_keys) == span(keys)
        pivots = [k.bit_length() - 1 for k in row_keys]
        assert all(k > 0 for k in row_keys)
        assert all(p > q for p, q in zip(pivots, pivots[1:]))
        for i, k in enumerate(row_keys):
            for j, p in enumerate(pivots):
                if i != j:
                    assert not (k >> p) & 1
        for k, sel in rows:
            assert xor_of(sel) == k
        assert all(sel and xor_of(sel) == 0 for sel in kernel)
        assert len(span(kernel)) == 1 << len(kernel)  # independent masks
        assert len(rows) + len(kernel) == len(keys)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_single_gates_vs_dense():
    rng = np.random.default_rng(41)
    for _ in range(150):
        n = int(rng.integers(1, 4))
        a = random_lim(rng, n)
        q = int(rng.integers(1, n + 1))
        gates = [("h", q), ("s", q)]
        if n >= 2:
            t = int(rng.integers(1, n + 1))
            while t == q:
                t = int(rng.integers(1, n + 1))
            gates.append(("cx", q, t))
        gate = gates[int(rng.integers(0, len(gates)))]
        got = lim_to_matrix(pl.conjugate(a, (gate,)))
        u = clifford_circuit_matrix(n, (gate,))
        np.testing.assert_allclose(got, u @ lim_to_matrix(a) @ u.conj().T, atol=1e-9)


def test_conjugate_circuit_vs_dense():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        circ = []
        for _ in range(int(rng.integers(1, 12))):
            kind = ("h", "s", "cx")[int(rng.integers(0, 3))]
            if kind == "cx":
                c, t = rng.choice(n, size=2, replace=False) + 1
                circ.append(("cx", int(c), int(t)))
            else:
                circ.append((kind, int(rng.integers(1, n + 1))))
        a = random_lim(rng, n)
        got = lim_to_matrix(pl.conjugate(a, circ))
        u = clifford_circuit_matrix(n, circ)
        np.testing.assert_allclose(got, u @ lim_to_matrix(a) @ u.conj().T, atol=1e-9)


def test_cx_convention_pinned():
    # control qubit 2 (MSB), target qubit 1: the textbook CNOT matrix
    np.testing.assert_allclose(
        cx_matrix(2, 2, 1),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    )
    # conjugation facts: CX X_c CX = X_c X_t ; CX Z_t CX = Z_c Z_t
    a = pl.conjugate(from_text("XI"), (("cx", 2, 1),))
    assert pl.format_lim(a) == "XX"
    b = pl.conjugate(from_text("IZ"), (("cx", 2, 1),))
    assert pl.format_lim(b) == "ZZ"


def signed_key(p):
    """The ``group_keys`` entry of a +-1 string; any other scalar fails."""
    assert p.scalar in (1, -1)
    return (p.x, p.z, int(p.scalar.real))


def test_find_opposite_vs_enumeration():
    rng = np.random.default_rng(67)
    none_seen = found_seen = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        g0 = pl.rref(random_stabilizer_genset(n, rng))
        g1 = pl.rref(random_stabilizer_genset(n, rng))
        k0 = group_keys(g0)
        k1 = group_keys(g1)
        exists = any((x, z, -s) in k1 for (x, z, s) in k0)
        got = pl.find_opposite(g0, g1)
        if got is None:
            none_seen += 1
            assert not exists
        else:
            found_seen += 1
            assert signed_key(got) in k0
            assert signed_key(pl.neg(got)) in k1
    assert none_seen > 0 and found_seen > 0


def test_find_opposite_known_case():
    # <XX, -ZZ> contains +YY and <-YY> contains -YY: opposite pair exists
    g0 = pl.GeneratorSet(2, [from_text("XX"), from_text("-ZZ")])
    g1 = pl.GeneratorSet(2, [from_text("-YY")])
    h = pl.find_opposite(g0, g1)
    assert h is not None
    assert signed_key(h) in group_keys(g0)
    assert signed_key(pl.neg(h)) in group_keys(g1)
    # empty second set can never contain -h
    assert pl.find_opposite(g0, pl.GeneratorSet(2, [])) is None
