"""Annealing search: fidelity, move closure, certification, no false wins."""

from __future__ import annotations

import math

import numpy as np
import pytest

from limdd.stabrank import (
    AnnealConfig,
    StabRankError,
    anneal_step,
    certify,
    fidelity,
    random_stabilizer_state,
    search_rank,
    search_with_restarts,
)
from limdd.diagram import lim_apply_dense
from limdd.pauli import PauliLim
from limdd.states import dicke_dense
from oracles import brute_stabilizer_elements


def test_fidelity_of_target_itself():
    rng = np.random.default_rng(60)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert fidelity(v[:, None], v) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_zero_weight_dicke():
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    assert fidelity(zero[:, None], dicke_dense(3, 0)) == pytest.approx(1.0)


def test_fidelity_orthogonal():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert fidelity(a[:, None], b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_monotone_under_extension():
    rng = np.random.default_rng(61)
    target = dicke_dense(4, 2)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        cols = np.column_stack(
            [random_stabilizer_state(4, rng) for _ in range(k)]
        )
        extra = random_stabilizer_state(4, rng)
        f_small = fidelity(cols, target)
        f_big = fidelity(np.column_stack([cols, extra]), target)
        assert f_big >= f_small - 1e-9


def test_fidelity_range():
    rng = np.random.default_rng(62)
    target = dicke_dense(3, 1)
    for _ in range(30):
        cols = np.column_stack(
            [random_stabilizer_state(3, rng) for _ in range(2)]
        )
        f = fidelity(cols, target)
        assert -1e-12 <= f <= 1.0 + 1e-9


def test_random_stabilizer_states_are_stabilizer():
    rng = np.random.default_rng(63)
    for n in (1, 2, 3):
        for _ in range(5):
            vec = random_stabilizer_state(n, rng)
            assert np.linalg.norm(vec) == pytest.approx(1.0)
            assert len(brute_stabilizer_elements(vec)) == 1 << n


def test_apply_pauli_dense_hermitian_convention():
    # Y = iXZ on one qubit
    vec = np.array([2.0, 3.0], dtype=complex)
    got = lim_apply_dense(PauliLim(1, 1, 1, 1), vec)
    assert np.allclose(got, np.array([-3j, 2j]), atol=1e-12)
    # sign flips the whole operator
    assert np.allclose(lim_apply_dense(PauliLim(1, 1, 1, -1), vec), -got, atol=1e-12)


def test_anneal_moves_stay_stabilizer():
    rng = np.random.default_rng(64)
    for n in (2, 3, 4):
        for _ in range(8):
            psi = random_stabilizer_state(n, rng)
            while True:
                x = int(rng.integers(0, 1 << n))
                z = int(rng.integers(0, 1 << n))
                sign = 1 if rng.random() < 0.5 else -1
                moved = psi + lim_apply_dense(PauliLim(n, x, z, sign), psi)
                norm = np.linalg.norm(moved)
                if norm > 1e-12:
                    break
            moved /= norm
            assert len(brute_stabilizer_elements(moved)) == 1 << n


def test_anneal_step_accepts_improvements():
    # with beta huge, only non-worsening moves pass; fidelity never drops
    rng = np.random.default_rng(65)
    target = dicke_dense(3, 1)
    cols = np.column_stack([random_stabilizer_state(3, rng) for _ in range(2)])
    f = fidelity(cols, target)
    for _ in range(200):
        cols, f_new, _ = anneal_step(cols, target, 1e9, rng, f)
        assert f_new >= f - 1e-9
        f = f_new


def test_anneal_step_rejections_keep_v():
    rng = np.random.default_rng(66)
    target = dicke_dense(3, 1)
    cols = np.column_stack([random_stabilizer_state(3, rng) for _ in range(2)])
    f = fidelity(cols, target)
    saw_reject = False
    for _ in range(300):
        new_cols, f_new, accepted = anneal_step(cols, target, 1e9, rng, f)
        if not accepted:
            assert new_cols is cols and f_new == f
            saw_reject = True
        cols, f = new_cols, f_new
    assert saw_reject


def test_certify_residuals():
    target = dicke_dense(2, 1)
    exact = target[:, None]
    _, res = certify(exact, target)
    assert res < 1e-12
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0
    _, res_bad = certify(zero[:, None], target)
    assert res_bad > 0.5


def test_search_rank_table_entry_small():
    res = search_with_restarts(2, 1, 1, restarts=5, seed=0)
    assert res.success and res.residual < 1e-6
    # the witness really spans the target
    recon = res.vectors @ res.coefficients
    assert np.linalg.norm(recon - dicke_dense(2, 1)) < 1e-6


def test_search_rank_no_false_success():
    # D(3,1) has stabilizer rank 2; chi=1 must not report success
    cfg = AnnealConfig(3, 1, 1, beta_steps=6, steps_per_beta=60, seed=1)
    res = search_rank(cfg)
    assert res.success is False
    assert res.residual > 1e-3
    assert res.steps_used == 6 * 60


def test_search_rank_reports_steps():
    cfg = AnnealConfig(2, 1, 1, beta_steps=4, steps_per_beta=25, seed=0)
    res = search_rank(cfg)
    assert res.steps_used <= 100


def test_config_validation():
    with pytest.raises(StabRankError):
        AnnealConfig(0, 0, 1)
    with pytest.raises(StabRankError):
        AnnealConfig(3, 4, 1)
    with pytest.raises(StabRankError):
        AnnealConfig(3, 1, 0)
    with pytest.raises(StabRankError):
        AnnealConfig(3, 1, 1, beta_start=10.0, beta_end=1.0)
    with pytest.raises(StabRankError):
        AnnealConfig(3, 1, 1, beta_steps=0)
