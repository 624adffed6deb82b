"""Circuit simulation on top of the diagram store.

The engine owns one DiagramStore plus the dynamic-programming caches for
ApplyGate and Add, keyed on canonicalized operands so that edges equal up to
stabilizer factors (and, for ApplyGate, up to complex phase) share results.
In "limdd" mode every gate takes a structural route:

  * Pauli gates multiply the root label,
  * Hadamard, downward controlled Pauli and upward CX gates are pushed to
    their level by conjugating edge labels with the gate's circuit,
  * diagonal phase gates (S, S†, T, T†) are pushed to their level by
    commuting them past edge labels, which flips the gate to its conjugate
    under an X or Y factor on its qubit,
  * multi-controlled X is built from projections and Adds.

A "qmdd" engine forces the identity label group and routes every gate
through generic matrix application of a 2n-level gate diagram, since the
structural updates write Pauli factors onto labels.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .diagram import DiagramStore, Edge, ScalarKeyedTable, scale_edge
from .pauli import (
    EPS_EQ,
    PauliLim,
    conjugate,
    identity,
    inverse,
    is_zero,
    mul,
    scale,
    single,
    zero,
)

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_T_PHASE = cmath.exp(1j * math.pi / 4)

# diag(1, w) gates: name -> (w, name of the conjugate gate diag(1, w*))
_PHASE_GATES = {
    "s": (1j, "sdg"),
    "sdg": (-1j, "s"),
    "t": (_T_PHASE, "tdg"),
    "tdg": (_T_PHASE.conjugate(), "t"),
}

# the one table of 1-qubit gate matrices (gate diagrams and the dense oracle)
MAT_1Q = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2,
    **{name: np.diag([1.0, w]) for name, (w, _) in _PHASE_GATES.items()},
}


class EngineError(Exception):
    pass


@dataclass
class EngineStats:
    gate_count: int = 0
    apply_calls: int = 0
    add_calls: int = 0
    apply_cache_hits: int = 0
    apply_cache_misses: int = 0
    add_cache_hits: int = 0
    add_cache_misses: int = 0
    peak_nodes: int = 0

    def as_dict(self) -> dict:
        return {
            "gate_count": self.gate_count,
            "apply_calls": self.apply_calls,
            "add_calls": self.add_calls,
            "apply_cache_hits": self.apply_cache_hits,
            "apply_cache_misses": self.apply_cache_misses,
            "add_cache_hits": self.add_cache_hits,
            "add_cache_misses": self.add_cache_misses,
            "peak_nodes": self.peak_nodes,
        }

    def as_text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.as_dict().items())


def _phase_quarter(s: complex) -> int:
    return int(round(cmath.phase(s) / (math.pi / 2))) % 4


def _phase_step(lbl: PauliLim, op: tuple) -> tuple:
    """diag(1, w) on qubit k past the label P: D P = P D when P_k is I or Z,
    and D P = w P D* when P_k is X or Y."""
    name, k = op
    if (lbl.x >> (k - 1)) & 1:
        w, conj = _PHASE_GATES[name]
        return scale(w, lbl), (conj, k)
    return lbl, op


def _conj_step(circ):
    """Clifford U past the label P: U P = (U P U^dagger) U."""
    return lambda lbl, op: (conjugate(lbl, circ), op)


class Engine:
    """One n-qubit simulation context: store, root edge, caches, statistics.

    Qubit k is 1-based with qubit n the top level.  The root starts at
    |0...0>.  ``use_caches=False`` turns the Apply/Add caches off (for
    equivalence testing); ``debug=True`` re-audits the store after every
    gate."""

    def __init__(
        self,
        n: int,
        mode: str = "limdd",
        use_caches: bool = True,
        debug: bool = False,
    ):
        if n < 1:
            raise EngineError("need at least one qubit")
        if mode not in ("limdd", "qmdd"):
            raise EngineError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.use_caches = use_caches
        self.debug = debug
        self.store = DiagramStore("pauli" if mode == "limdd" else "identity")
        self.stats = EngineStats()
        e = Edge(identity(0), self.store.leaf)
        for _ in range(n):
            e = self.store.make_edge(e, Edge(zero(e.target.index), e.target))
        self._apply_cache: dict = {}
        self._add_cache = ScalarKeyedTable()
        self._unary_cache: dict = {}
        self._norm_cache: dict[int, float] = {}
        self._snp_cache: dict = {}
        self._proj_cache: dict = {}
        self._gate_dd_cache: dict = {}
        self.set_root(e)

    # -- core combinators ---------------------------------------------------

    def add(self, e: Edge, f: Edge) -> Edge:
        """Edge for |e> + |f| at the same level; Zero when the sum vanishes."""
        self.stats.add_calls += 1
        if is_zero(e.label):
            return f
        if is_zero(f.label):
            return e
        lvl = e.target.index
        if f.target.index != lvl:
            raise EngineError("add needs equal levels")
        if lvl == 0:
            s = e.label.scalar + f.label.scalar
            if abs(s) <= EPS_EQ * max(1.0, abs(e.label.scalar), abs(f.label.scalar)):
                return Edge(zero(0), self.store.leaf)
            return Edge(PauliLim(0, 0, 0, s), self.store.leaf)
        if e.target.nid > f.target.nid:
            e, f = f, e
        key_lim = None
        if self.use_caches:
            key_lim = self.store.root_label(
                Edge(mul(inverse(e.label), f.label), f.target)
            )
            disc = (e.target.nid, f.target.nid, key_lim.x, key_lim.z)
            got = self._add_cache.get(disc, key_lim.scalar)
            if got is not None:
                self.stats.add_cache_hits += 1
                return Edge(mul(e.label, got.label), got.target)
        self.stats.add_cache_misses += 1
        a0 = self.add(self.store.follow(e, 0), self.store.follow(f, 0))
        a1 = self.add(self.store.follow(e, 1), self.store.follow(f, 1))
        if is_zero(a0.label) and is_zero(a1.label):
            res = Edge(zero(lvl), e.target)
        else:
            res = self.store.make_edge(a0, a1)
        if key_lim is not None:
            self._add_cache.put(
                disc,
                key_lim.scalar,
                Edge(mul(inverse(e.label), res.label), res.target),
            )
        return res

    def apply_gate(self, u: Edge, e: Edge) -> Edge:
        """Apply the matrix held by gate edge ``u`` (2k levels) to ``e``."""
        self.stats.apply_calls += 1
        if is_zero(e.label):
            return e
        lvl = e.target.index
        if u.target.index != 2 * lvl:
            raise EngineError("gate edge level must be twice the state level")
        if is_zero(u.label):
            return Edge(zero(lvl), e.target)
        if lvl == 0:
            return Edge(mul(u.label, e.label), self.store.leaf)
        disc = None
        if self.use_caches:
            disc = self._apply_key(u, e)
            got = self._apply_cache.get(disc)
            if got is not None:
                self.stats.apply_cache_hits += 1
                return scale_edge(u.label.scalar * e.label.scalar, got)
        self.stats.apply_cache_misses += 1
        cols = [self.store.follow(e, c) for c in (0, 1)]
        rows = []
        for r in (0, 1):
            ur = self.store.follow(u, r)
            parts = [
                self.apply_gate(self.store.follow(ur, c), cols[c]) for c in (0, 1)
            ]
            rows.append(self.add(parts[0], parts[1]))
        if is_zero(rows[0].label) and is_zero(rows[1].label):
            res = Edge(zero(lvl), e.target)
        else:
            res = self.store.make_edge(rows[0], rows[1])
        if disc is not None:
            self._apply_cache[disc] = scale_edge(
                1.0 / (u.label.scalar * e.label.scalar), res
            )
        return res

    def _apply_key(self, u: Edge, e: Edge) -> tuple:
        ru = self.store.root_label(
            Edge(PauliLim(u.label.n, u.label.x, u.label.z, 1.0), u.target)
        )
        re_ = self.store.root_label(
            Edge(PauliLim(e.label.n, e.label.x, e.label.z, 1.0), e.target)
        )
        return (
            u.target.nid,
            ru.x,
            ru.z,
            _phase_quarter(ru.scalar),
            e.target.nid,
            re_.x,
            re_.z,
            _phase_quarter(re_.scalar),
        )

    # -- gate diagrams ------------------------------------------------------

    def gate_to_dd(self, name: str, qubits: Sequence[int]) -> Edge:
        """2n-level diagram for a named gate on the given 1-based qubits."""
        qubits = tuple(int(q) for q in qubits)
        self._check_qubits(qubits)
        key = (name, qubits)
        got = self._gate_dd_cache.get(key)
        if got is not None:
            return got
        if name in MAT_1Q and len(qubits) == 1:
            actives, mat = qubits, MAT_1Q[name]
        elif name == "cx" and len(qubits) == 2:
            actives, mat = self._controlled_matrix(qubits[0], qubits[1], "x")
        elif name == "cz" and len(qubits) == 2:
            actives, mat = self._controlled_matrix(qubits[0], qubits[1], "z")
        else:
            raise EngineError(f"unsupported gate {name!r} on {len(qubits)} qubits")
        res = self._build_gate_dd(actives, mat)
        self._gate_dd_cache[key] = res
        return res

    def dense_gate_to_dd(self, qubits: Sequence[int], matrix: np.ndarray) -> Edge:
        """Gate diagram from a dense 2^k x 2^k matrix, k <= 3.  Row bits
        follow the order of ``qubits`` (first = most significant)."""
        qubits = tuple(int(q) for q in qubits)
        self._check_qubits(qubits)
        if len(qubits) > 3:
            raise EngineError("dense gates limited to 3 qubits")
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (1 << len(qubits), 1 << len(qubits)):
            raise EngineError("matrix size does not match qubit count")
        key = ("dense", qubits, mat.tobytes())
        got = self._gate_dd_cache.get(key)
        if got is not None:
            return got
        order = sorted(range(len(qubits)), key=lambda i: -qubits[i])
        k = len(qubits)
        perm = np.zeros(1 << k, dtype=int)
        for idx in range(1 << k):
            out = 0
            for pos, i in enumerate(order):
                bit = (idx >> (k - 1 - i)) & 1
                out |= bit << (k - 1 - pos)
            perm[idx] = out
        ordered = np.zeros_like(mat)
        for r in range(1 << k):
            for c in range(1 << k):
                ordered[perm[r], perm[c]] = mat[r, c]
        res = self._build_gate_dd(tuple(qubits[i] for i in order), ordered)
        self._gate_dd_cache[key] = res
        return res

    def _controlled_matrix(self, c: int, t: int, letter: str):
        if c == t:
            raise EngineError("control and target must differ")
        actives = (max(c, t), min(c, t))
        cpos = actives.index(c)   # 0 = high bit of the 4x4 index
        tpos = 1 - cpos
        mat = np.zeros((4, 4), dtype=complex)
        for col in range(4):
            if (col >> (1 - cpos)) & 1:
                if letter == "x":
                    mat[col ^ (1 << (1 - tpos)), col] = 1.0
                else:
                    mat[col, col] = -1.0 if (col >> (1 - tpos)) & 1 else 1.0
            else:
                mat[col, col] = 1.0
        return actives, mat

    def _check_qubits(self, qubits: Sequence[int]) -> None:
        if len(set(qubits)) != len(qubits):
            raise EngineError("repeated qubit argument")
        for q in qubits:
            if not 1 <= q <= self.n:
                raise EngineError(f"qubit {q} out of range 1..{self.n}")

    def _gate_pair(self, a: Optional[Edge], b: Optional[Edge]) -> Optional[Edge]:
        if a is None and b is None:
            return None
        if a is None:
            a = Edge(zero(b.target.index), b.target)
        if b is None:
            b = Edge(zero(a.target.index), a.target)
        return self.store.make_edge(a, b)

    def _build_gate_dd(self, actives_desc: tuple, mat: np.ndarray) -> Edge:
        memo: dict = {}

        def build(level: int, d: np.ndarray) -> Edge:
            if level == 0:
                s = complex(d[0, 0])
                if s == 0:
                    return Edge(zero(0), self.store.leaf)
                return Edge(PauliLim(0, 0, 0, s), self.store.leaf)
            key = (level, d.tobytes())
            got = memo.get(key)
            if got is not None:
                return got
            if level in actives_desc:
                h = d.shape[0] // 2
                quads = ((d[:h, :h], d[:h, h:]), (d[h:, :h], d[h:, h:]))
                sub = {
                    (r, c): (build(level - 1, quads[r][c]) if quads[r][c].any() else None)
                    for r in (0, 1)
                    for c in (0, 1)
                }
                res = self._gate_pair(
                    self._gate_pair(sub[0, 0], sub[0, 1]),
                    self._gate_pair(sub[1, 0], sub[1, 1]),
                )
            else:
                child = build(level - 1, d)
                res = self._gate_pair(
                    self._gate_pair(child, None), self._gate_pair(None, child)
                )
            memo[key] = res
            return res

        return build(self.n, mat)

    # -- structural gate paths ---------------------------------------------

    def apply_pauli(self, e: Edge, p: PauliLim) -> Edge:
        """Pauli gates touch only the root label."""
        self._require_pauli_mode()
        return Edge(mul(p, e.label), e.target)

    def _descend(self, e: Edge, level: int, op: tuple, step, at_node) -> Edge:
        """Push gate ``op`` acting on qubits <= level down to its level.

        ``step(label, op)`` returns ``(label', op')`` with op . label =
        label' . op', so op' is the gate the subtree sees; ``at_node(v, op)``
        applies the gate at a node of its level.  Cached per (gate, node)."""
        if is_zero(e.label):
            return e
        lbl, op = step(e.label, op)
        v = e.target
        key = (op, v.nid)
        res = self._unary_cache.get(key)
        if res is None:
            if v.index == level:
                res = at_node(v, op)
            else:
                lo = self._descend(v.low, level, op, step, at_node)
                hi = self._descend(v.high, level, op, step, at_node)
                res = self.store.make_edge(lo, hi)
            self._unary_cache[key] = res
        return Edge(mul(lbl, res.label), res.target)

    def apply_phase(self, e: Edge, k: int, gate: str) -> Edge:
        """Diagonal phase gate ``gate`` (s, sdg, t or tdg) on qubit k."""
        self._require_pauli_mode()

        def at_node(v, op):
            w = _PHASE_GATES[op[0]][0]
            return self.store.make_edge(v.low, scale_edge(w, v.high))

        return self._descend(e, k, (gate, k), _phase_step, at_node)

    def apply_hadamard(self, e: Edge, k: int) -> Edge:
        self._require_pauli_mode()

        def at_node(v, op):
            a0 = self.add(v.low, v.high)
            a1 = self.add(v.low, scale_edge(-1.0, v.high))
            if is_zero(a0.label) and is_zero(a1.label):
                raise EngineError("hadamard produced the zero state")
            return scale_edge(_SQRT1_2, self.store.make_edge(a0, a1))

        return self._descend(e, k, ("h", k), _conj_step((("h", k),)), at_node)

    def apply_downward_cpauli(self, e: Edge, letter: str, c: int, t: int) -> Edge:
        """Controlled Pauli with the control above the target (c > t)."""
        self._require_pauli_mode()
        if not c > t:
            raise EngineError("downward form needs control above target")
        letter = letter.upper()
        if letter == "Z":
            circ = (("h", t), ("cx", c, t), ("h", t))
        elif letter == "X":
            circ = (("cx", c, t),)
        else:
            raise EngineError(f"unsupported controlled Pauli {letter!r}")

        def at_node(v, op):
            q = single(v.index - 1, t, letter)
            return self.store.make_edge(
                v.low, Edge(mul(q, v.high.label), v.high.target)
            )

        return self._descend(e, c, ("c" + letter, c, t), _conj_step(circ), at_node)

    def apply_upward_cnot(self, e: Edge, c: int, t: int) -> Edge:
        """CX with the target above the control (t > c): four projections
        and two adds at the target level."""
        self._require_pauli_mode()
        if not t > c:
            raise EngineError("upward form needs target above control")

        def at_node(v, op):
            lo, hi = v.low, v.high
            a0 = self.add(self._project(lo, c, 0), self._project(hi, c, 1))
            a1 = self.add(self._project(hi, c, 0), self._project(lo, c, 1))
            if is_zero(a0.label) and is_zero(a1.label):
                raise EngineError("cnot produced the zero state")
            return self.store.make_edge(a0, a1)

        return self._descend(e, t, ("cxu", c, t), _conj_step((("cx", c, t),)), at_node)

    def apply_mcx(self, e: Edge, controls: Iterable[tuple[int, int]], t: int) -> Edge:
        """Multi-controlled X via psi - P psi + X_t P psi, P the projector
        onto the control pattern (qubit, wanted bit)."""
        self._require_pauli_mode()
        proj = e
        for q, want in controls:
            if q == t:
                raise EngineError("target cannot be a control")
            proj = self._project(proj, q, want)
            if is_zero(proj.label):
                return e
        flipped = Edge(mul(single(self.n, t, "X"), proj.label), proj.target)
        return self.add(self.add(e, scale_edge(-1.0, proj)), flipped)

    def _require_pauli_mode(self) -> None:
        if self.store.group != "pauli":
            raise EngineError(
                "structural gate paths write Pauli labels; qmdd mode must "
                "use gate diagrams"
            )

    # -- measurement --------------------------------------------------------

    def squared_norm(self, e: Edge) -> float:
        if is_zero(e.label):
            return 0.0
        return abs(e.label.scalar) ** 2 * self._norm_node(e.target)

    def _norm_node(self, v) -> float:
        if v.index == 0:
            return 1.0
        got = self._norm_cache.get(v.nid)
        if got is None:
            got = self.squared_norm(v.low) + self.squared_norm(v.high)
            self._norm_cache[v.nid] = got
        return got

    def _snp(self, e: Edge, y: int, k: int) -> float:
        """Squared norm of (projector onto qubit k = y) |e>."""
        if is_zero(e.label):
            return 0.0
        yp = y ^ ((e.label.x >> (k - 1)) & 1)
        return abs(e.label.scalar) ** 2 * self._snp_node(e.target, yp, k)

    def _snp_node(self, v, y: int, k: int) -> float:
        key = (v.nid, y, k)
        got = self._snp_cache.get(key)
        if got is None:
            if v.index == k:
                got = self.squared_norm(v.low if y == 0 else v.high)
            else:
                got = self._snp(v.low, y, k) + self._snp(v.high, y, k)
            self._snp_cache[key] = got
        return got

    def measurement_probability(self, e: Edge, k: int, y: int) -> float:
        if not 1 <= k <= e.target.index:
            raise EngineError(f"qubit {k} out of range")
        norm = self.squared_norm(e)
        if norm == 0.0:
            raise EngineError("zero state has no measurement probabilities")
        p = self._snp(e, y, k) / norm
        return min(max(p, 0.0), 1.0)

    def _project(self, e: Edge, k: int, b: int) -> Edge:
        """(possibly zero) edge for the projection of |e> onto qubit k = b."""
        if is_zero(e.label):
            return e
        bp = b ^ ((e.label.x >> (k - 1)) & 1)
        res = self._project_node(e.target, k, bp)
        return Edge(mul(e.label, res.label), res.target)

    def _project_node(self, v, k: int, b: int) -> Edge:
        key = (v.nid, k, b)
        got = self._proj_cache.get(key)
        if got is not None:
            return got
        if v.index == k:
            kept = v.low if b == 0 else v.high
            if is_zero(kept.label):
                res = Edge(zero(k), v)
            elif b == 0:
                res = self.store.make_edge(
                    v.low, Edge(zero(k - 1), v.low.target)
                )
            else:
                res = self.store.make_edge(
                    Edge(zero(k - 1), v.high.target), v.high
                )
        else:
            lo = self._project(v.low, k, b)
            hi = self._project(v.high, k, b)
            if is_zero(lo.label) and is_zero(hi.label):
                res = Edge(zero(v.index), v)
            else:
                res = self.store.make_edge(lo, hi)
        self._proj_cache[key] = res
        return res

    def update_post_meas(self, e: Edge, k: int, b: int) -> Edge:
        """Unnormalized state after observing qubit k = b."""
        if is_zero(e.label):
            raise EngineError("cannot measure the zero state")
        if not 1 <= k <= e.target.index:
            raise EngineError(f"qubit {k} out of range")
        res = self._project(e, k, b)
        if is_zero(res.label):
            raise EngineError(f"outcome {b} on qubit {k} has probability zero")
        return res

    def sample(self, rng, e: Optional[Edge] = None) -> str:
        """One full measurement in the computational basis; leftmost bit is
        the top qubit."""
        cur = self.root if e is None else e
        bits = []
        for k in range(cur.target.index, 0, -1):
            p0 = self.measurement_probability(cur, k, 0)
            b = 0 if rng.random() < p0 else 1
            bits.append(str(b))
            cur = self.update_post_meas(cur, k, b)
        return "".join(bits)

    def prob_of_string(self, e: Edge, bits) -> float:
        seq = [int(b) for b in bits]
        if len(seq) != e.target.index:
            raise EngineError("bit count must match the level")
        cur = e
        prob = 1.0
        for i, b in enumerate(seq):
            k = e.target.index - i
            p = self.measurement_probability(cur, k, b)
            if p == 0.0:
                return 0.0
            prob *= p
            cur = self.update_post_meas(cur, k, b)
        return prob

    # -- top-level driver ---------------------------------------------------

    def run_gate(self, name: str, *qubits: int) -> None:
        """Apply a named gate to the current root state.  A gate that runs
        out of recursion depth raises EngineError and leaves the root as it
        was."""
        name = name.lower()
        self._check_qubits(qubits)
        self.stats.gate_count += 1
        try:
            e = self._dispatch(name, qubits)
        except RecursionError:
            raise self._too_deep(name) from None
        self.set_root(e)

    def _dispatch(self, name: str, qubits: tuple) -> Edge:
        e = self.root
        if self.mode == "qmdd":
            e = self.apply_gate(self.gate_to_dd(name, qubits), e)
        elif name in ("x", "y", "z") and len(qubits) == 1:
            e = self.apply_pauli(e, single(self.n, qubits[0], name))
        elif name == "i" and len(qubits) == 1:
            pass
        elif name in _PHASE_GATES and len(qubits) == 1:
            e = self.apply_phase(e, qubits[0], name)
        elif name == "h" and len(qubits) == 1:
            e = self.apply_hadamard(e, qubits[0])
        elif name == "cx" and len(qubits) == 2:
            c, t = qubits
            if c > t:
                e = self.apply_downward_cpauli(e, "X", c, t)
            else:
                e = self.apply_upward_cnot(e, c, t)
        elif name == "cz" and len(qubits) == 2:
            c, t = max(qubits), min(qubits)
            e = self.apply_downward_cpauli(e, "Z", c, t)
        else:
            raise EngineError(f"unknown gate {name!r} for {len(qubits)} qubits")
        return e

    def run_mcx(self, controls: Iterable[tuple[int, int]], target: int) -> None:
        """Multi-controlled X on the current root, with gate bookkeeping."""
        self.stats.gate_count += 1
        try:
            e = self.apply_mcx(self.root, tuple(controls), target)
        except RecursionError:
            raise self._too_deep("mcx") from None
        self.set_root(e)

    def _too_deep(self, name: str) -> EngineError:
        # the descents recurse once per level, so the interpreter's
        # recursion limit caps the qubit count a gate can reach through
        return EngineError(
            f"{name} on {self.n} qubits ({self.mode} mode) exceeds the "
            f"recursion limit of {sys.getrecursionlimit()}; the diagram "
            "descent recurses once per qubit"
        )

    def set_root(self, e: Edge) -> None:
        """Make ``e`` the current state.  The one place that tracks the peak
        store size and, in debug mode, re-audits the store."""
        self.root = e
        if self.store.node_count() > self.stats.peak_nodes:
            self.stats.peak_nodes = self.store.node_count()
        if self.debug:
            self.store.audit()

    def amplitude(self, bits) -> complex:
        return self.store.amplitude(self.root, bits)

    def to_dense(self) -> np.ndarray:
        return self.store.to_dense(self.root)

    def node_count(self) -> int:
        return self.store.reachable_count(self.root)
