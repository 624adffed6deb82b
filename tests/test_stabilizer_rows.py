"""Packed stabilizer rows: the same-string pair record against the general
elimination, row products and sign-mask conjugation against ``mul``, and
the memory a stabilizer tower takes."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

import limdd.diagram as diagram_mod
import limdd.pauli as pl
from limdd.diagram import DiagramStore
from limdd.engine import Engine
from oracles import echelon_ok, group_keys, random_stabilizer_genset


def _random_reduced(n: int, rng) -> pl.GeneratorSet:
    return pl.rref(random_stabilizer_genset(n, rng, int(rng.integers(1, n + 1))))


def _with_signs(g: pl.GeneratorSet, signs: int, reduced: bool = True) -> pl.GeneratorSet:
    return pl.GeneratorSet.packed(g.n, g.rows, signs, reduced)


def _forbid(*args, **kwargs):
    raise AssertionError("same-string pair ran an elimination")


def test_same_string_record_matches_the_general_elimination():
    # pairs of reduced groups with one set of strings and independent sign
    # masks: the record read off the rows equals the one the elimination
    # gives when the pair is not known to be reduced
    rng = np.random.default_rng(89)
    general = DiagramStore()
    clashes = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        g = _random_reduced(n, rng)
        s0, s1 = (int(rng.integers(0, 1 << len(g))) for _ in range(2))
        g0, g1 = _with_signs(g, s0), _with_signs(g, s1)
        a = pl.PauliLim(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
            (1.0, -1.0, 1j, -0.5j, 2.0)[int(rng.integers(0, 5))],
        )
        rows, sels, opp, meet = general._pair(g0, _with_signs(g, s1, reduced=False))
        want_min = general.arg_lex_min(g0, _with_signs(g, s1, reduced=False), a)
        store = DiagramStore()
        with pytest.MonkeyPatch.context() as mp:
            for mod in (diagram_mod, pl):
                mp.setattr(mod, "gf2_eliminate", _forbid)
                mp.setattr(mod, "rref", _forbid)
            got_rows, got_sels, got_opp, got_meet = store._pair(g0, g1)
            got_min = store.arg_lex_min(g0, g1, a)
        assert got_rows == rows
        assert sels == tuple(1 << i for i in range(len(rows)))
        assert got_sels is None
        assert got_opp == opp
        # the general meet is rref of the agreeing kernel products
        assert got_meet.content_key() == meet.content_key()
        assert group_keys(got_meet) == group_keys(g0) & group_keys(g1)
        assert echelon_ok(got_meet) and got_meet.reduced
        for got, want in zip(got_min, want_min):
            assert (got.x, got.z) == (want.x, want.z)
            assert abs(got.scalar - want.scalar) <= 1e-12 * max(1.0, abs(want.scalar))
        assert not store._pair_memo
        clashes += bin(s0 ^ s1).count("1") > 1
    assert clashes > 30


def test_row_product_matches_mul():
    rng = np.random.default_rng(97)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        g = random_stabilizer_genset(n, rng)
        mask = int(rng.integers(0, 1 << len(g)))
        want = functools.reduce(
            pl.mul, [r for i, r in enumerate(g.gens) if (mask >> i) & 1], pl.identity(n)
        )
        x, z, s = pl.row_product(g.rows, g.signs, mask)
        assert (x, z) == (want.x, want.z)
        assert want.scalar == (-1.0 if s else 1.0)


def test_conjugate_group_matches_mul():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        g = random_stabilizer_genset(n, rng)
        a = pl.PauliLim(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
            (1.0, -1.0, 1j, 0.5 - 2j)[int(rng.integers(0, 4))],
        )
        got = pl.conjugate_group(a, g)
        for h, r in zip(got.gens, g.gens):
            want = pl.mul(pl.mul(a, r), pl.inverse(a))
            assert (h.x, h.z) == (want.x, want.z)
            assert abs(h.scalar - want.scalar) <= 1e-12


def test_stabilizer_tower_memory_is_linear():
    # |0...0> on 500 qubits: node m holds m rows, all shared with the
    # child's, so its group costs one tuple of pointers
    tracemalloc.start()
    try:
        eng = Engine(500)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eng.node_count() == 500
    assert size < 4_000_000, size
