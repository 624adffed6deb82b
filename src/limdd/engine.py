"""Circuit simulation on top of the diagram store.

The engine owns one DiagramStore plus the dynamic-programming caches for
ApplyGate and Add.  Add keys on canonicalized operands so that edges equal
up to stabilizer factors share results; ApplyGate runs only on scalar labels
and keys on its two targets, so edges equal up to a scalar share results.
In "limdd" mode every gate takes a structural route:

  * Pauli gates multiply the root label,
  * Hadamard, downward controlled Pauli and upward CX gates are pushed to
    their level by conjugating edge labels with the gate's circuit.  There
    H forms the sum and the difference of a node's children in one
    butterfly descent (``_butterfly``), and upward CX takes branch 0 of one
    child and branch 1 of the other at the control level in one
    cross-select descent (``_cross``).  Neither runs an Add, and the
    cross-select builds a projection only where one of its terms is zero,
  * diagonal phase gates (S, S†, T, T†) are pushed to their level by
    commuting them past edge labels, which flips the gate to its conjugate
    under an X or Y factor on its qubit,
  * multi-controlled X is built from projections and Adds.

A "qmdd" engine forces the identity label group and routes every gate
through generic matrix application of a 2n-level gate diagram, since the
structural updates write Pauli factors onto labels.  Its nodes all have the
trivial stabilizer group, so its cache keys are the labels themselves and
it never runs a stabilizer elimination (see ``DiagramStore``).

Add, the butterfly and the cross-select share one computed table, keyed by
both targets and the root label of the first label's inverse times the
second.  Every structural route, the projections behind multi-controlled X
included, is one ``_descend`` that recurses once per level, as do the
two-operand descents; a run out of recursion depth is reported as an
``EngineError``.

Measurement has two entry points.  ``sample`` draws a full basis string by
walking one path down from the root, weighting each branch by its squared
norm; it creates no nodes and does not recurse.  ``measurement_probability``
gives one qubit's outcome probability from a per-node dynamic program over
squared norms, without building a projection.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import asdict, dataclass
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
    """Gate and cache counters.  A butterfly (Hadamard's sum and difference
    in one descent) counts as two Adds in ``add_calls`` and in the hit or
    miss count, the two Adds it stands for; the cross-select of upward CX
    counts in no Add counter."""

    gate_count: int = 0
    apply_calls: int = 0
    add_calls: int = 0
    apply_cache_hits: int = 0
    apply_cache_misses: int = 0
    add_cache_hits: int = 0
    add_cache_misses: int = 0
    peak_nodes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _phase_step(lbl: PauliLim, op: tuple) -> tuple:
    """diag(1, w) on qubit k past the label P: D P = P D when P_k is I or Z,
    and D P = w P D* when P_k is X or Y."""
    name, k = op
    if (lbl.x >> (k - 1)) & 1:
        w, conj = _PHASE_GATES[name]
        return scale(w, lbl), (conj, k)
    return lbl, op


def _proj_step(lbl: PauliLim, op: tuple) -> tuple:
    """Projector onto qubit k = b past the label P: it becomes the projector
    onto k = 1 - b when P_k is X or Y."""
    _, k, b = op
    return lbl, ("proj", k, b ^ ((lbl.x >> (k - 1)) & 1))


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
        self._reach_cache: dict = {}
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
            return self._leaf_sum(e.label.scalar, f.label.scalar)
        if e.target.nid > f.target.nid:
            e, f = f, e
        key = None
        if self.use_caches:
            key = self._pair_key("+", e, f)
            got = self._add_cache.get(*key)
            if got is not None:
                self.stats.add_cache_hits += 1
                return Edge(mul(e.label, got.label), got.target)
        self.stats.add_cache_misses += 1
        a0 = self.add(self.store.follow(e, 0), self.store.follow(f, 0))
        a1 = self.add(self.store.follow(e, 1), self.store.follow(f, 1))
        res = self._node(a0, a1, e.target)
        if key is not None:
            self._add_cache.put(*key, Edge(mul(inverse(e.label), res.label), res.target))
        return res

    def _butterfly(self, e: Edge, f: Edge) -> tuple[Edge, Edge]:
        """(|e> + |f>, |e> - |f>) at one level in one descent: each level
        follows both operands once and recurses on the child pairs.

        The entry of (e, f) is keyed as ``add`` keys it; a key scalar in the
        lower half-plane is folded onto (e, -f), whose sum and difference
        are the same pair swapped, so both signs share one entry.  A call
        counts as two Adds in ``add_calls`` and in the hit or miss count."""
        st = self.stats
        st.add_calls += 2
        if is_zero(e.label):
            return f, scale_edge(-1.0, f)
        if is_zero(f.label):
            return e, e
        lvl = e.target.index
        if f.target.index != lvl:
            raise EngineError("butterfly needs equal levels")
        if lvl == 0:
            a, b = e.label.scalar, f.label.scalar
            return self._leaf_sum(a, b), self._leaf_sum(a, -b)
        swap = e.target.nid > f.target.nid
        if swap:
            e, f = f, e
        fold = False
        key = got = None
        if self.use_caches:
            disc, ks = self._pair_key("h", e, f)
            if ks.real < 0 or (ks.real == 0 and ks.imag < 0):
                fold = True
                f, ks = scale_edge(-1.0, f), -ks
            key = (disc, ks)
            got = self._add_cache.get(*key)
        if got is not None:
            st.add_cache_hits += 2
            s, d = (Edge(mul(e.label, g.label), g.target) for g in got)
        else:
            st.add_cache_misses += 2
            s0, d0 = self._butterfly(self.store.follow(e, 0), self.store.follow(f, 0))
            s1, d1 = self._butterfly(self.store.follow(e, 1), self.store.follow(f, 1))
            s = self._node(s0, s1, e.target)
            d = self._node(d0, d1, e.target)
            if key is not None:
                inv = inverse(e.label)
                self._add_cache.put(
                    *key, tuple(Edge(mul(inv, r.label), r.target) for r in (s, d))
                )
        if fold:
            s, d = d, s
        if swap:
            d = scale_edge(-1.0, d)
        return s, d

    def _cross(self, e: Edge, f: Edge, c: int) -> Edge:
        """P0|e> + P1|f> at one level, P_b the projector onto qubit c = b.

        The descent follows both operands down to level c and takes branch
        0 of e and branch 1 of f there, with no projection node and no Add.
        The entry is normalized by A = e's label; since P_b A = A P_(b xor
        x), an X or Y factor of A on qubit c swaps the roles of e and f, and
        that bit is part of the key.  When one term is zero the other is a
        projection, which is cached per node rather than per pair."""
        if not self._reaches(e, c, 0):
            return self._project(f, c, 1)
        if not self._reaches(f, c, 1):
            return self._project(e, c, 0)
        key = None
        if self.use_caches:
            flip = (e.label.x >> (c - 1)) & 1
            key = self._pair_key(("x", c, flip), e, f)
            got = self._add_cache.get(*key)
            if got is not None:
                return Edge(mul(e.label, got.label), got.target)
        if e.target.index == c:
            r0, r1 = self.store.follow(e, 0), self.store.follow(f, 1)
        else:
            r0 = self._cross(self.store.follow(e, 0), self.store.follow(f, 0), c)
            r1 = self._cross(self.store.follow(e, 1), self.store.follow(f, 1), c)
        res = self._node(r0, r1, e.target)
        if key is not None:
            self._add_cache.put(*key, Edge(mul(inverse(e.label), res.label), res.target))
        return res

    def _reaches(self, e: Edge, k: int, b: int) -> bool:
        """Whether |e> has a nonzero amplitude with qubit k = b; exact (no
        float test), cached per node."""
        if is_zero(e.label):
            return False
        b ^= (e.label.x >> (k - 1)) & 1
        v = e.target
        key = (v.nid, k, b)
        got = self._reach_cache.get(key)
        if got is None:
            if v.index == k:
                got = not is_zero((v.high if b else v.low).label)
            else:
                got = self._reaches(v.low, k, b) or self._reaches(v.high, k, b)
            self._reach_cache[key] = got
        return got

    def _pair_key(self, tag, e: Edge, f: Edge) -> tuple:
        """(discrete part, scalar) key of a two-operand descent, normalized
        by e's label: the tag, both targets and the root label of e^-1 f."""
        k = self.store.root_label(Edge(mul(inverse(e.label), f.label), f.target))
        return (tag, e.target.nid, f.target.nid, k.x, k.z), k.scalar

    def _leaf_sum(self, a: complex, b: complex) -> Edge:
        s = a + b
        if abs(s) <= EPS_EQ * max(1.0, abs(a), abs(b)):
            return Edge(zero(0), self.store.leaf)
        return Edge(PauliLim(0, 0, 0, s), self.store.leaf)

    def _node(self, e0: Edge, e1: Edge, v) -> Edge:
        """make_edge(e0, e1), or the zero edge on ``v``'s level when both
        children are zero."""
        if is_zero(e0.label) and is_zero(e1.label):
            return Edge(zero(v.index), v)
        return self.store.make_edge(e0, e1)

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
            # labels are scalars here (gate diagrams need an identity-group
            # store), so the targets are the key and the scalars factor out
            disc = (u.target.nid, e.target.nid)
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
        res = self._node(rows[0], rows[1], e.target)
        if disc is not None:
            self._apply_cache[disc] = scale_edge(
                1.0 / (u.label.scalar * e.label.scalar), res
            )
        return res

    # -- gate diagrams ------------------------------------------------------

    def gate_to_dd(self, name: str, qubits: Sequence[int]) -> Edge:
        """2n-level diagram for a named gate on the given 1-based qubits;
        qmdd mode only, since ``apply_gate`` keys its cache on scalar
        labels."""
        if self.store.group != "identity":
            raise EngineError("gate diagrams run only in qmdd mode")
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
        applies the gate at a node of its level.  Cached per (gate, node).
        Only a projection can map both children to zero; the node's result
        is then the zero edge."""
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
                res = self._node(lo, hi, v)
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
            a0, a1 = self._butterfly(v.low, v.high)
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
        """CX with the target above the control (t > c).  At a node of the
        target level the new branches are P0|low> + P1|high> and P0|high> +
        P1|low>, P_b the projector onto the control = b; each is one
        ``_cross`` descent to the control level."""
        self._require_pauli_mode()
        if not t > c:
            raise EngineError("upward form needs target above control")

        def at_node(v, op):
            a0 = self._cross(v.low, v.high, c)
            a1 = self._cross(v.high, v.low, c)
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

    def _project(self, e: Edge, k: int, b: int) -> Edge:
        """(possibly zero) edge for the projection of |e> onto qubit k = b."""

        def at_node(v, op):
            kept = v.high if op[2] else v.low
            if is_zero(kept.label):
                return Edge(zero(k), v)
            dropped = Edge(zero(k - 1), kept.target)
            if op[2]:
                return self.store.make_edge(dropped, kept)
            return self.store.make_edge(kept, dropped)

        return self._descend(e, k, ("proj", k, b), _proj_step, at_node)

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
        """Squared norm of |v>, cached per node.  Children are done first
        from an explicit stack, so depth is not bounded by recursion."""
        if v.index == 0:
            return 1.0
        cache = self._norm_cache
        stack = [v]
        while stack:
            u = stack[-1]
            if u.nid in cache:
                stack.pop()
                continue
            todo = [
                c.target
                for c in (u.low, u.high)
                if not is_zero(c.label) and c.target.index and c.target.nid not in cache
            ]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            cache[u.nid] = self.squared_norm(u.low) + self.squared_norm(u.high)
        return cache[v.nid]

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
        """Probability that qubit k of |e> reads y; builds no node."""
        if not 1 <= k <= e.target.index:
            raise EngineError(f"qubit {k} out of range")
        if y not in (0, 1):
            raise EngineError(f"outcome {y!r} is not 0 or 1")
        norm = self.squared_norm(e)
        if norm == 0.0:
            raise EngineError("zero state has no measurement probabilities")
        try:
            p = self._snp(e, y, k) / norm
        except RecursionError:
            raise self._too_deep("measurement_probability") from None
        return min(max(p, 0.0), 1.0)

    def sample(self, rng, e: Optional[Edge] = None) -> str:
        """One full measurement in the computational basis; leftmost bit is
        the top qubit.

        Walks down one path from the root: at each level the 0-branch is
        taken with probability |branch 0|^2 / |current edge|^2, drawn with
        one ``rng.random()``, and the walk goes on in the chosen branch.
        Only node norms are computed (and cached); no node is created."""
        cur = self.root if e is None else e
        norm = self.squared_norm(cur)
        if norm == 0.0:
            raise EngineError("zero state has no measurement probabilities")
        bits = []
        while cur.target.index:
            low = self.store.follow(cur, 0)
            n0 = self.squared_norm(low)
            nxt = low if rng.random() < n0 / norm else self.store.follow(cur, 1)
            if is_zero(nxt.label):
                # n0 / norm can round to just under 1 when branch 1 is empty
                nxt = low
            norm = n0 if nxt is low else self.squared_norm(nxt)
            bits.append("0" if nxt is low else "1")
            cur = nxt
        return "".join(bits)

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
        """Multi-controlled X on the current root, with gate bookkeeping;
        ``controls`` holds (qubit, wanted bit) pairs."""
        controls = tuple(controls)
        self._check_qubits((target,) + tuple(q for q, _ in controls))
        if any(want not in (0, 1) for _, want in controls):
            raise EngineError("mcx wanted bits must be 0 or 1")
        self.stats.gate_count += 1
        try:
            e = self.apply_mcx(self.root, controls, target)
        except RecursionError:
            raise self._too_deep("mcx") from None
        self.set_root(e)

    def _too_deep(self, name: str) -> EngineError:
        # the descents, Add, Apply and the probability DP recurse once per
        # level, so the interpreter's recursion limit caps the qubit count
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
