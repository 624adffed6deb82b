"""Simulated-annealing search for stabilizer-rank upper bounds.

Works on dense vectors at small n: keep a set V of chi random stabilizer
states, repeatedly replace one member psi by a normalized (I + P)psi for a
random signed Pauli P (such moves stay inside the stabilizer states), and
accept by the Metropolis rule on the fidelity F_V = <D|Pi_V|D> between the
target Dicke state and the projector onto span(V).  A success claim is only
reported after an independent least-squares reconstruction of the target
from V with residual below 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .circuit import Circuit, dense_simulate
from .diagram import lim_apply_dense
from .pauli import PauliLim
from .states import dicke_dense

if TYPE_CHECKING:
    import numpy as np

_RANK_TOL = 1e-10
_FIDELITY_WIN = 1e-7
_RESIDUAL_TOL = 1e-6


class StabRankError(Exception):
    pass


@dataclass
class AnnealConfig:
    n: int
    w: int
    chi: int
    beta_start: float = 1.0
    beta_end: float = 4000.0
    beta_steps: int = 100
    steps_per_beta: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.chi < 1 or not 0 <= self.w <= self.n:
            raise StabRankError("need n >= 1, chi >= 1, 0 <= w <= n")
        if self.beta_steps < 1 or self.steps_per_beta < 1:
            raise StabRankError("schedule lengths must be positive")
        if self.beta_end < self.beta_start:
            raise StabRankError("beta schedule must not decrease")
        if self.seed < 0:
            raise StabRankError(f"seed must be non-negative, not {self.seed}")


@dataclass
class SearchResult:
    success: bool
    residual: float
    steps_used: int
    vectors: Optional[np.ndarray] = None      # columns span the witness set
    coefficients: Optional[np.ndarray] = None


def random_stabilizer_state(n: int, rng) -> np.ndarray:
    """Dense state of a random depth-3n circuit over {H, S, CX}."""
    ops = []
    for _ in range(3 * n):
        r = rng.random()
        if n >= 2 and r < 1 / 3:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(("cx", (int(a), int(b))))
        elif r < 2 / 3:
            ops.append(("h", (int(rng.integers(0, n)),)))
        else:
            ops.append(("s", (int(rng.integers(0, n)),)))
    return dense_simulate(Circuit(n, tuple(ops)))


def fidelity(vectors: np.ndarray, target: np.ndarray) -> float:
    """<D|Pi|D> for the projector Pi onto the span of the columns."""
    import numpy as np

    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    basis = u[:, s > _RANK_TOL]
    return float(np.sum(np.abs(basis.conj().T @ target) ** 2))


def anneal_step(vectors: np.ndarray, target: np.ndarray, beta: float, rng,
                current_f: float):
    """One proposed replacement from V = ``vectors`` of fidelity
    ``current_f``; returns (vectors, fidelity, accepted)."""
    import numpy as np

    n = target.size.bit_length() - 1
    chi = vectors.shape[1]
    j = int(rng.integers(0, chi))
    while True:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        sign = 1 if rng.random() < 0.5 else -1
        move = PauliLim(n, x, z, sign)
        moved = vectors[:, j] + lim_apply_dense(move, vectors[:, j])
        norm = np.linalg.norm(moved)
        if norm > 1e-12:
            break
    proposal = vectors.copy()
    proposal[:, j] = moved / norm
    new_f = fidelity(proposal, target)
    if new_f > current_f or rng.random() < math.exp(-beta * (current_f - new_f)):
        return proposal, new_f, True
    return vectors, current_f, False


def certify(vectors: np.ndarray, target: np.ndarray):
    """Least-squares reconstruction; the independent success check."""
    import numpy as np

    coeffs, *_ = np.linalg.lstsq(vectors, target, rcond=None)
    residual = float(np.linalg.norm(vectors @ coeffs - target))
    return coeffs, residual


def search_rank(cfg: AnnealConfig) -> SearchResult:
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    target = dicke_dense(cfg.n, cfg.w)
    vectors = np.column_stack(
        [random_stabilizer_state(cfg.n, rng) for _ in range(cfg.chi)]
    )
    f = fidelity(vectors, target)
    steps = 0
    for beta in np.linspace(cfg.beta_start, cfg.beta_end, cfg.beta_steps):
        for _ in range(cfg.steps_per_beta):
            steps += 1
            vectors, f, _ = anneal_step(vectors, target, float(beta), rng, f)
            if f >= 1.0 - _FIDELITY_WIN:
                coeffs, residual = certify(vectors, target)
                if residual < _RESIDUAL_TOL:
                    return SearchResult(True, residual, steps, vectors, coeffs)
    coeffs, residual = certify(vectors, target)
    return SearchResult(False, residual, steps)


def search_with_restarts(
    n: int, w: int, chi: int, restarts: int = 1, seed: int = 0, **schedule
) -> SearchResult:
    """Independent seeded runs; first success wins, steps accumulate."""
    if restarts < 1:
        raise StabRankError(f"need at least one restart, not {restarts}")
    total = 0
    last: Optional[SearchResult] = None
    for r in range(restarts):
        res = search_rank(AnnealConfig(n, w, chi, seed=seed + r, **schedule))
        total += res.steps_used
        if res.success:
            res.steps_used = total
            return res
        last = res
    last.steps_used = total
    return last
