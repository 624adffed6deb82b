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

A "qmdd" engine forces the identity label group and routes every gate,
multi-controlled X included, through generic matrix application of a gate
diagram, since the structural updates write Pauli factors onto labels.  A
gate whose highest qubit is k has a local diagram of 2k levels, on qubits
1..k only: the gate is the identity on every qubit above, where the apply
passes u down to both children of the state's node with no zero block and
no Add.  The identity on m qubits is one canonical node, kept per level
(``_identity``); the gate diagrams are built on it, and an identity
diagram of any level met during the apply returns the operand as it is,
so the apply never descends below a gate's lowest qubit, nor into the
control-0 half of a controlled gate.  Multi-controlled X is the diagram
I - P + X_t P, P the tensor product of the control projectors.  Its nodes
all have the trivial stabilizer group, so its cache keys are the labels
themselves and it never runs a stabilizer elimination (see
``DiagramStore``).

Add, the butterfly and the cross-select share one computed table, keyed by
both targets and the root label of the first label's inverse times the
second.  Add and the butterfly use it at levels >= 2 only, and take two
exits that neither read nor write it.  A level-1 pair is summed (and for
the butterfly differenced) from the operands' amplitudes
(``DiagramStore.leaf_scalars``), with one ``make_edge`` per result and no
level-0 call.  A pair on one node whose key has an identity string is f =
k e modulo the node's stabilizers, so the sum is (1 + k) e and the
difference (1 - k) e, with no descent.

Every structural route, the projections behind multi-controlled X
included, is one ``_descend``.  The descents, Add and ApplyGate run on one
explicit stack (``_run``), so a gate reaches any level.  Each takes its fast
exits (a zero operand, the leaf, a cache hit, a qmdd identity block) as a
plain call; only a miss returns a generator, which yields its children.

``GATE_ARITY`` is the one gate set, which the circuit grammar reads too.
Input is checked once, at the public entries: ``gate_to_dd`` and
``run_gate`` (through ``gate_to_dd`` in qmdd mode) check a gate's name,
read in any case, its arity and its qubits, ``run_mcx`` its
qubits and wanted bits, ``add`` and ``apply_gate`` their operands' levels.
The routes and the descent steps below them trust what they are given.

Measurement reads each node's ``weight`` field: the log of the node's
squared norm and the probability that its top qubit reads 1, filled by
``_weights`` from an explicit stack.  Log norms do not overflow where
absolute norms reach 2^n.
Scalars and Z factors of the labels cancel out of these probabilities, so
only the labels' X bits are carried down.  ``sample`` draws a full basis
string by walking one path down from the root, one branch probability per
level, carrying the X mask of the path's label product;
``measurement_probability`` walks down level by level, carrying the
probability of each (node, X parity on the measured qubit) pair.  Neither
creates a node, a label or an edge, nor recurses.

Memory: ``collect`` sweeps the store (``DiagramStore.sweep``) down to what
its roots reach: the current root, the identity diagrams of ``_identity``
and the cached gate diagrams, each as tall as its gate's highest qubit.  It
sweeps only once the store holds ``_SWEEP_RATIO`` times the nodes the last
sweep kept, so the store stays within a constant factor of the live diagram
and a sweep, linear in the store, costs O(1) amortized per node created.
A sweep empties the compute tables (Add, unary, reach and apply caches); a
kept node keeps its weights, which are a field of the node.
``circuit.build_engine``, the package's one gate loop, calls it after
every op; ``run_gate`` and ``set_root`` never sweep, so a caller that holds
an earlier root across gates keeps canonicity (the same state comes back as
the same node) until it calls ``collect``.  Node ids are never reused, so
a held edge still denotes its state after a sweep; but a dropped node that
is built again is a new node, and a held edge to a dropped node must not be
used as an operand.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import asdict, dataclass
from types import GeneratorType
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

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

if TYPE_CHECKING:
    import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_T_PHASE = cmath.exp(1j * math.pi / 4)

# diag(1, w) gates: name -> (w, name of the conjugate gate diag(1, w*))
_PHASE_GATES = {
    "s": (1j, "sdg"),
    "sdg": (-1j, "s"),
    "t": (_T_PHASE, "tdg"),
    "tdg": (_T_PHASE.conjugate(), "t"),
}

# the one table of 1-qubit gate matrices (gate diagrams and the dense
# oracle), rows of complex entries
MAT_1Q = {
    "i": ((1 + 0j, 0j), (0j, 1 + 0j)),
    "x": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "y": ((0j, -1j), (1j, 0j)),
    "z": ((1 + 0j, 0j), (0j, -1 + 0j)),
    "h": ((complex(_SQRT1_2), complex(_SQRT1_2)), (complex(_SQRT1_2), complex(-_SQRT1_2))),
    **{name: ((1 + 0j, 0j), (0j, complex(w))) for name, (w, _) in _PHASE_GATES.items()},
}

# the one gate set: name -> number of qubit arguments (the circuit grammar,
# ``run_gate`` and ``gate_to_dd`` all read it)
GATE_ARITY = {**dict.fromkeys(MAT_1Q, 1), "cx": 2, "cz": 2}

# projectors onto |0> and |1> (control blocks of gate diagrams)
_PROJ = (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)))

# ``collect`` sweeps once the store holds this many times the nodes the last
# sweep kept
_SWEEP_RATIO = 4


class EngineError(Exception):
    pass


def _index(v, what: str) -> int:
    """``operator.index(v)``, with a non-integer reported as an EngineError."""
    try:
        return operator.index(v)
    except TypeError:
        raise EngineError(f"{what} {v!r} is not an integer") from None


@dataclass
class EngineStats:
    """Gate and cache counters.  A butterfly (Hadamard's sum and difference
    in one descent) counts as two Adds in ``add_calls`` and in the hit or
    miss count, the two Adds it stands for.  ``add_cache_hits`` counts only
    table reads that returned an entry; an Add the table did not answer is
    a miss, and that includes the two exits that skip the table (a level-1
    pair and a one-node pair), so hits plus misses is every Add above the
    leaf that had two nonzero operands.  The cross-select of upward CX
    counts in no Add counter.  An identity block that ``apply_gate``
    returns as it is (qmdd mode) counts as an apply call, and as neither an
    apply-cache hit nor a miss.  The Adds that build a qmdd multi-controlled
    X diagram (once per control pattern and target) count as Adds.

    ``peak_nodes`` is the largest store size (``DiagramStore.node_count``)
    seen at a gate boundary, taken before any sweep at that boundary;
    ``sweeps`` counts the sweeps ``collect`` ran."""

    gate_count: int = 0
    apply_calls: int = 0
    add_calls: int = 0
    apply_cache_hits: int = 0
    apply_cache_misses: int = 0
    add_cache_hits: int = 0
    add_cache_misses: int = 0
    peak_nodes: int = 0
    sweeps: int = 0

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


def _vanishes(s: complex, a: complex, b: complex) -> bool:
    """Whether s, the sum of a and b or of a and -b, is zero up to
    rounding: |s| <= EPS_EQ max(1, |a|, |b|)."""
    return abs(s) <= EPS_EQ * max(1.0, abs(a), abs(b))


def _unfold(s: Edge, d: Edge, fold: bool, swap: bool) -> tuple:
    """Undo the butterfly's operand swap and sign fold on (sum, difference)."""
    if fold:
        s, d = d, s
    return s, scale_edge(-1.0, d) if swap else d


def _conj_step(circ):
    """Clifford U past the label P: U P = (U P U^dagger) U."""
    return lambda lbl, op: (conjugate(lbl, circ), op)


class Engine:
    """One n-qubit simulation context: store, root edge, caches, statistics.

    Qubit k is 1-based with qubit n the top level.  The root starts at
    |0...0>.  ``run_gate`` and ``run_mcx`` are its gate entries;
    ``debug=True`` re-audits the store after every gate."""

    def __init__(self, n: int, mode: str = "limdd", debug: bool = False):
        n = _index(n, "qubit count")
        if n < 1:
            raise EngineError("need at least one qubit")
        if mode not in ("limdd", "qmdd"):
            raise EngineError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.debug = debug
        self.store = DiagramStore("pauli" if mode == "limdd" else "identity")
        self.stats = EngineStats()
        e = Edge(identity(0), self.store.leaf)
        for _ in range(n):
            e = self.store.make_edge(e, Edge(zero(e.target.index), e.target))
        self._apply_cache: dict = {}
        self._add_cache = ScalarKeyedTable()
        self._unary_cache: dict = {}
        self._reach_cache: dict = {}
        self._gate_dd_cache: dict = {}
        self._ids = [Edge(identity(0), self.store.leaf)]   # see _identity
        self._kept = 0                                     # see collect
        self.set_root(e)

    # -- core combinators ---------------------------------------------------

    @staticmethod
    def _run(step):
        """Drive a step to its result on an explicit stack.

        A step is a finished result or a generator that yields the steps it
        needs, receives their results and returns its own, so a descent
        through any number of levels uses one Python frame.  ``step`` holds
        a step to start or the result for the generator on top."""
        stack = []
        while True:
            if type(step) is GeneratorType:
                stack.append(step)
                step = None
            elif not stack:
                return step
            try:
                step = stack[-1].send(step)
            except StopIteration as done:
                stack.pop()
                step = done.value

    def add(self, e: Edge, f: Edge) -> Edge:
        """Edge for |e> + |f| at the same level; Zero when the sum vanishes."""
        if e.target.index != f.target.index:
            raise EngineError("add needs equal levels")
        return self._run(self._add(e, f))

    def _add(self, e: Edge, f: Edge):
        st = self.stats
        st.add_calls += 1
        if is_zero(e.label):
            return f
        if is_zero(f.label):
            return e
        v = e.target
        if v.index == 0:
            return self._leaf_sum(e.label.scalar, f.label.scalar)
        if v.index == 1:
            st.add_cache_misses += 1
            e0, e1 = self.store.leaf_scalars(e)
            f0, f1 = self.store.leaf_scalars(f)
            return self._node(self._leaf_add(e0, f0), self._leaf_add(e1, f1), v)
        if v.nid > f.target.nid:
            e, f = f, e
        key = self._pair_key("+", e, f)
        disc, k = key
        if e.target is f.target and not (disc[3] or disc[4]):
            # f = k e modulo the node's stabilizers
            st.add_cache_misses += 1
            return self._times(1.0 + k, k, e)
        got = self._add_cache.get(*key)
        if got is not None:
            st.add_cache_hits += 1
            return Edge(mul(e.label, got.label), got.target)
        st.add_cache_misses += 1
        return self._add_miss(e, f, key)

    def _add_miss(self, e: Edge, f: Edge, key):
        a0 = yield self._add(self.store.follow(e, 0), self.store.follow(f, 0))
        a1 = yield self._add(self.store.follow(e, 1), self.store.follow(f, 1))
        res = self._node(a0, a1, e.target)
        self._add_cache.put(*key, Edge(mul(inverse(e.label), res.label), res.target))
        return res

    def _butterfly(self, e: Edge, f: Edge):
        """(|e> + |f>, |e> - |f>) at one level in one descent: each level
        follows both operands once and descends on the child pairs.

        The entry of (e, f) is keyed as ``add`` keys it; a key scalar in the
        lower half-plane is folded onto (e, -f), whose sum and difference
        are the same pair swapped, so both signs share one entry.  Level-1
        pairs and one-node pairs take ``add``'s two table-free exits.  A
        call counts as two Adds in ``add_calls`` and in the hit or miss
        count."""
        st = self.stats
        st.add_calls += 2
        if is_zero(e.label):
            return f, scale_edge(-1.0, f)
        if is_zero(f.label):
            return e, e
        v = e.target
        if v.index == 0:
            a, b = e.label.scalar, f.label.scalar
            return self._leaf_sum(a, b), self._leaf_sum(a, -b)
        if v.index == 1:
            st.add_cache_misses += 2
            e0, e1 = self.store.leaf_scalars(e)
            f0, f1 = self.store.leaf_scalars(f)
            s0, d0 = self._leaf_butterfly(e0, f0)
            s1, d1 = self._leaf_butterfly(e1, f1)
            return self._node(s0, s1, v), self._node(d0, d1, v)
        swap = v.nid > f.target.nid
        if swap:
            e, f = f, e
        disc, ks = self._pair_key("h", e, f)
        if e.target is f.target and not (disc[3] or disc[4]):
            # f = ks e modulo the node's stabilizers
            st.add_cache_misses += 2
            return self._times(1.0 + ks, ks, e), self._times(1.0 - ks, ks, e)
        fold = ks.real < 0 or (ks.real == 0 and ks.imag < 0)
        if fold:
            f, ks = scale_edge(-1.0, f), -ks
        key = (disc, ks)
        got = self._add_cache.get(*key)
        if got is None:
            st.add_cache_misses += 2
            return self._butterfly_miss(e, f, key, fold, swap)
        st.add_cache_hits += 2
        s, d = (Edge(mul(e.label, g.label), g.target) for g in got)
        return _unfold(s, d, fold, swap)

    def _butterfly_miss(self, e: Edge, f: Edge, key, fold: bool, swap: bool):
        s0, d0 = yield self._butterfly(self.store.follow(e, 0), self.store.follow(f, 0))
        s1, d1 = yield self._butterfly(self.store.follow(e, 1), self.store.follow(f, 1))
        s = self._node(s0, s1, e.target)
        d = self._node(d0, d1, e.target)
        inv = inverse(e.label)
        self._add_cache.put(*key, tuple(Edge(mul(inv, r.label), r.target) for r in (s, d)))
        return _unfold(s, d, fold, swap)

    def _cross(self, e: Edge, f: Edge, c: int):
        """P0|e> + P1|f> at one level, P_b the projector onto qubit c = b.

        The descent follows both operands down to level c and takes branch
        0 of e and branch 1 of f there, with no projection node and no Add.
        The entry is normalized by A = e's label; since P_b A = A P_(b xor
        x), an X or Y factor of A on qubit c swaps the roles of e and f, and
        that bit is part of the key.  When one term is zero the other is a
        projection, which is cached per node rather than per pair."""
        if not (yield self._reaches(e, c, 0)):
            return (yield self._project(f, c, 1))
        if not (yield self._reaches(f, c, 1)):
            return (yield self._project(e, c, 0))
        key = self._pair_key(("x", c, (e.label.x >> (c - 1)) & 1), e, f)
        got = self._add_cache.get(*key)
        if got is not None:
            return Edge(mul(e.label, got.label), got.target)
        if e.target.index == c:
            r0, r1 = self.store.follow(e, 0), self.store.follow(f, 1)
        else:
            r0 = yield self._cross(self.store.follow(e, 0), self.store.follow(f, 0), c)
            r1 = yield self._cross(self.store.follow(e, 1), self.store.follow(f, 1), c)
        res = self._node(r0, r1, e.target)
        self._add_cache.put(*key, Edge(mul(inverse(e.label), res.label), res.target))
        return res

    def _reaches(self, e: Edge, k: int, b: int):
        """Whether |e> has a nonzero amplitude with qubit k = b; exact (no
        float test), cached per node."""
        if is_zero(e.label):
            return False
        b ^= (e.label.x >> (k - 1)) & 1
        v = e.target
        key = (v.nid, k, b)
        got = self._reach_cache.get(key)
        if got is None:
            if v.index != k:
                return self._reaches_miss(v, k, b, key)
            got = self._reach_cache[key] = not is_zero((v.high if b else v.low).label)
        return got

    def _reaches_miss(self, v, k: int, b: int, key: tuple):
        got = (yield self._reaches(v.low, k, b)) or (yield self._reaches(v.high, k, b))
        self._reach_cache[key] = got
        return got

    def _pair_key(self, tag, e: Edge, f: Edge) -> tuple:
        """(discrete part, scalar) key of a two-operand descent, normalized
        by e's label: the tag, both targets and the root label of e^-1 f."""
        k = self.store.root_label(Edge(mul(inverse(e.label), f.label), f.target))
        return (tag, e.target.nid, f.target.nid, k.x, k.z), k.scalar

    def _leaf_sum(self, a: complex, b: complex) -> Edge:
        s = a + b
        if _vanishes(s, a, b):
            return Edge(zero(0), self.store.leaf)
        return Edge(PauliLim(0, 0, 0, s), self.store.leaf)

    def _leaf(self, a: Optional[complex]) -> Edge:
        """The leaf edge of amplitude a; None is the zero edge."""
        if a is None:
            return Edge(zero(0), self.store.leaf)
        return Edge(PauliLim(0, 0, 0, a), self.store.leaf)

    def _leaf_add(self, a: Optional[complex], b: Optional[complex]) -> Edge:
        """The leaf Add of amplitudes a and b (None a zero term)."""
        if a is None:
            return self._leaf(b)
        if b is None:
            return self._leaf(a)
        return self._leaf_sum(a, b)

    def _leaf_butterfly(self, a: Optional[complex], b: Optional[complex]) -> tuple:
        """The leaf butterfly of amplitudes a and b (None a zero term)."""
        if a is None:
            return self._leaf(b), self._leaf(None if b is None else -1.0 * b)
        if b is None:
            e = self._leaf(a)
            return e, e
        return self._leaf_sum(a, b), self._leaf_sum(a, -b)

    @staticmethod
    def _times(c: complex, k: complex, e: Edge) -> Edge:
        """c |e> for c = 1 + k or 1 - k, the sum or difference of |e> and
        k |e>; the zero edge when c vanishes as ``_leaf_sum`` tests it."""
        if _vanishes(c, 1.0, k):
            return Edge(zero(e.target.index), e.target)
        return scale_edge(c, e)

    def _node(self, e0: Edge, e1: Edge, v) -> Edge:
        """make_edge(e0, e1), or the zero edge on ``v``'s level when both
        children are zero."""
        if is_zero(e0.label) and is_zero(e1.label):
            return Edge(zero(v.index), v)
        return self.store.make_edge(e0, e1)

    def apply_gate(self, u: Edge, e: Edge) -> Edge:
        """Apply the gate held by gate edge ``u`` to ``e``.  ``u`` has 2k
        levels, k at most e's level, and stands for the gate on qubits 1..k
        and the identity on every qubit above.  An identity diagram (a
        canonical node of ``_identity``, of any level) returns ``e`` scaled
        by u's label, with no cache lookup and no descent."""
        span = u.target.index
        if span > 2 * e.target.index or span % 2:
            raise EngineError("gate edge needs an even level, at most twice the state's")
        return self._run(self._apply(u, e))

    def _apply(self, u: Edge, e: Edge):
        self.stats.apply_calls += 1
        if is_zero(e.label):
            return e
        if is_zero(u.label):
            return Edge(zero(e.target.index), e.target)
        ids = self._ids
        m = u.target.index // 2
        if m < len(ids) and u.target is ids[m].target:
            return Edge(scale(u.label.scalar, e.label), e.target)
        # labels are scalars here (gate diagrams need an identity-group
        # store), so the targets are the key and the scalars factor out
        disc = (u.target.nid, e.target.nid)
        got = self._apply_cache.get(disc)
        if got is not None:
            self.stats.apply_cache_hits += 1
            return scale_edge(u.label.scalar * e.label.scalar, got)
        self.stats.apply_cache_misses += 1
        return self._apply_miss(u, e, disc)

    def _apply_miss(self, u: Edge, e: Edge, disc):
        follow = self.store.follow
        if u.target.index < 2 * e.target.index:
            # the gate is the identity on e's top qubit
            r0 = yield self._apply(u, follow(e, 0))
            r1 = yield self._apply(u, follow(e, 1))
        else:
            cols = [follow(e, c) for c in (0, 1)]
            rows = []
            for r in (0, 1):
                ur = follow(u, r)
                p0 = yield self._apply(follow(ur, 0), cols[0])
                p1 = yield self._apply(follow(ur, 1), cols[1])
                rows.append((yield self._add(p0, p1)))
            r0, r1 = rows
        res = self._node(r0, r1, e.target)
        self._apply_cache[disc] = scale_edge(1.0 / (u.label.scalar * e.label.scalar), res)
        return res

    # -- gate diagrams ------------------------------------------------------

    def gate_to_dd(self, name: str, qubits: Sequence[int]) -> Edge:
        """Diagram of a named gate on the given 1-based qubits, local to
        qubits 1..k, k the highest of them: 2k levels, which ``apply_gate``
        applies to a state of any level >= k.  qmdd mode only, since
        ``apply_gate`` keys its cache on scalar labels.  The name is read
        in any case, as ``run_gate`` reads it."""
        if self.store.group != "identity":
            raise EngineError("gate diagrams run only in qmdd mode")
        name = name.lower()
        qubits = self._check_gate(name, qubits)
        key = (name, qubits)
        got = self._gate_dd_cache.get(key)
        if got is not None:
            return got
        if name in MAT_1Q:
            terms = ({qubits[0]: MAT_1Q[name]},)
        else:
            # |0><0|_c (x) I + |1><1|_c (x) U_t, CZ's control on the higher qubit
            c, t = (max(qubits), min(qubits)) if name == "cz" else qubits
            terms = ({c: _PROJ[0]}, {c: _PROJ[1], t: MAT_1Q[name[1]]})
        res = self._gate_diagram(terms, max(qubits))
        self._gate_dd_cache[key] = res
        return res

    def _mcx_to_dd(self, controls: tuple, t: int) -> Edge:
        """Diagram of the multi-controlled X, I - P + X_t P with P the
        tensor product of the control projectors (qmdd mode), local to
        qubits 1..k, k the highest of the target and the controls.
        ``controls`` holds (qubit, wanted bit) pairs checked by ``run_mcx``."""
        key = ("mcx", controls, t)
        got = self._gate_dd_cache.get(key)
        if got is None:
            k = max([t, *(q for q, _ in controls)])
            proj = {q: _PROJ[want] for q, want in controls}
            p = self._gate_diagram((proj,), k)
            xp = self._gate_diagram(({**proj, t: MAT_1Q["x"]},), k)
            got = self.add(self.add(self._identity(k), scale_edge(-1.0, p)), xp)
            self._gate_dd_cache[key] = got
        return got

    def _check_gate(self, name: str, qubits: Sequence[int]) -> tuple:
        """``_check_qubits``, and raises unless ``name`` is a gate of
        ``GATE_ARITY`` on that many qubits."""
        qubits = self._check_qubits(qubits)
        arity = GATE_ARITY.get(name)
        if arity is None:
            raise EngineError(f"unknown gate {name!r}")
        if len(qubits) != arity:
            raise EngineError(f"{name} takes {arity} qubit argument(s), not {len(qubits)}")
        return qubits

    def _check_qubits(self, qubits: Sequence[int]) -> tuple:
        """The qubits as ints; raises unless they are distinct and in 1..n."""
        qubits = tuple(_index(q, "qubit") for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise EngineError("repeated qubit argument")
        for q in qubits:
            if not 1 <= q <= self.n:
                raise EngineError(f"qubit {q} out of range 1..{self.n}")
        return qubits

    def _gate_pair(self, a: Optional[Edge], b: Optional[Edge]) -> Optional[Edge]:
        if a is None and b is None:
            return None
        if a is None:
            a = Edge(zero(b.target.index), b.target)
        if b is None:
            b = Edge(zero(a.target.index), a.target)
        return self.store.make_edge(a, b)

    def _gate_node(self, parts) -> Edge:
        """One qubit level of a gate diagram: the sum of the (2x2 block,
        edge below) parts, cell by cell, so the blocks' supports must be
        disjoint."""
        cells = [[None, None], [None, None]]
        for m, e in parts:
            for r, row in enumerate(m):
                for c, s in enumerate(row):
                    if s:
                        cells[r][c] = scale_edge(s, e)
        return self._gate_pair(*(self._gate_pair(*row) for row in cells))

    def _identity(self, m: int) -> Edge:
        """The identity on m qubits: one canonical node at level 2m, built
        once and kept, so ``apply_gate`` recognizes it by node."""
        ids = self._ids
        while len(ids) <= m:
            ids.append(self._gate_node([(MAT_1Q["i"], ids[-1])]))
        return ids[m]

    def _gate_diagram(self, terms: Sequence[dict], k: int) -> Edge:
        """Gate diagram on qubits 1..k (2k levels) of a sum of tensor
        products; each term maps qubits to 2x2 blocks, the identity
        elsewhere.  Each term is built level by level from the bottom, and
        the terms are summed only at level k, cell by cell with no Add, so
        k must be the highest qubit any term acts on and the terms' blocks
        there must have disjoint support.  ``_identity(k)`` is built first,
        so by canonicity every identity block below k is a node of
        ``_ids``, which ``apply_gate`` recognizes."""
        eye = MAT_1Q["i"]
        self._identity(k)
        es = [self._ids[0]] * len(terms)
        for level in range(1, k):
            es = [self._gate_node([(t.get(level, eye), e)]) for t, e in zip(terms, es)]
        return self._gate_node([(t.get(k, eye), e) for t, e in zip(terms, es)])

    # -- structural gate paths ---------------------------------------------

    def _descend(self, e: Edge, level: int, op: tuple, step, at_node):
        """Push gate ``op`` acting on qubits <= level down to its level.

        ``step(label, op)`` returns ``(label', op')`` with op . label =
        label' . op', so op' is the gate the subtree sees; the step
        ``at_node(v, op)`` applies the gate at a node of its level.  Cached
        per (gate, node).  Only a projection can map both children to zero;
        the node's result is then the zero edge."""
        if is_zero(e.label):
            return e
        lbl, op = step(e.label, op)
        key = (op, e.target.nid)
        res = self._unary_cache.get(key)
        if res is None:
            return self._descend_miss(lbl, e.target, op, key, level, step, at_node)
        return Edge(mul(lbl, res.label), res.target)

    def _descend_miss(self, lbl: PauliLim, v, op, key, level: int, step, at_node):
        if v.index == level:
            res = yield at_node(v, op)
        else:
            lo = yield self._descend(v.low, level, op, step, at_node)
            hi = yield self._descend(v.high, level, op, step, at_node)
            res = self._node(lo, hi, v)
        self._unary_cache[key] = res
        return Edge(mul(lbl, res.label), res.target)

    def _phase(self, e: Edge, k: int, gate: str) -> Edge:
        """Diagonal phase gate ``gate`` (s, sdg, t or tdg) on qubit k."""

        def at_node(v, op):
            w = _PHASE_GATES[op[0]][0]
            return self.store.make_edge(v.low, scale_edge(w, v.high))

        return self._run(self._descend(e, k, (gate, k), _phase_step, at_node))

    def _hadamard(self, e: Edge, k: int) -> Edge:
        def at_node(v, op):
            a0, a1 = yield self._butterfly(v.low, v.high)
            if is_zero(a0.label) and is_zero(a1.label):
                raise EngineError("hadamard produced the zero state")
            return scale_edge(_SQRT1_2, self.store.make_edge(a0, a1))

        return self._run(self._descend(e, k, ("h", k), _conj_step((("h", k),)), at_node))

    def _cpauli_down(self, e: Edge, letter: str, c: int, t: int) -> Edge:
        """Controlled X or Z (``letter``) with the control above the target
        (c > t)."""
        circ = (("h", t), ("cx", c, t), ("h", t)) if letter == "Z" else (("cx", c, t),)

        def at_node(v, op):
            q = single(v.index - 1, t, letter)
            return self.store.make_edge(
                v.low, Edge(mul(q, v.high.label), v.high.target)
            )

        return self._run(
            self._descend(e, c, ("c" + letter, c, t), _conj_step(circ), at_node)
        )

    def _cx_up(self, e: Edge, c: int, t: int) -> Edge:
        """CX with the target above the control (t > c).  At a node of the
        target level the new branches are P0|low> + P1|high> and P0|high> +
        P1|low>, P_b the projector onto the control = b; each is one
        ``_cross`` descent to the control level."""

        def at_node(v, op):
            a0 = yield self._cross(v.low, v.high, c)
            a1 = yield self._cross(v.high, v.low, c)
            if is_zero(a0.label) and is_zero(a1.label):
                raise EngineError("cnot produced the zero state")
            return self.store.make_edge(a0, a1)

        return self._run(
            self._descend(e, t, ("cxu", c, t), _conj_step((("cx", c, t),)), at_node)
        )

    def _mcx(self, e: Edge, controls: Iterable[tuple[int, int]], t: int) -> Edge:
        """Multi-controlled X via psi - P psi + X_t P psi, P the projector
        onto the control pattern (qubit, wanted bit)."""
        proj = e
        for q, want in controls:
            proj = self._run(self._project(proj, q, want))
            if is_zero(proj.label):
                return e
        flipped = Edge(mul(single(self.n, t, "X"), proj.label), proj.target)
        return self.add(self.add(e, scale_edge(-1.0, proj)), flipped)

    def _project(self, e: Edge, k: int, b: int):
        """Step to the (possibly zero) projection of |e> onto qubit k = b."""

        def at_node(v, op):
            kept = v.high if op[2] else v.low
            if is_zero(kept.label):
                return Edge(zero(k), v)
            dropped = Edge(zero(k - 1), kept.target)
            if op[2]:
                return self.store.make_edge(dropped, kept)
            return self.store.make_edge(kept, dropped)

        return self._descend(e, k, ("proj", k, b), _proj_step, at_node)

    # -- measurement --------------------------------------------------------

    def squared_norm(self, e: Edge) -> float:
        if is_zero(e.label):
            return 0.0
        ln = 2.0 * math.log(abs(e.label.scalar)) + self._weights(e.target)[0]
        return math.exp(ln)

    def _weights(self, v) -> tuple[float, float]:
        """(ln of the squared norm of |v>, probability that v's top qubit
        reads 1), kept in the node's ``weight`` field.  Log norms do not
        overflow at any depth, and a zero branch weighs -inf, so p1 is
        exactly 0 or 1 when a branch is empty.  Children are done first from
        an explicit stack, so depth is not bounded by recursion."""
        stack = [v]
        while stack:
            u = stack[-1]
            if u.weight is not None:
                stack.pop()
                continue
            todo = [c.target for c in (u.low, u.high) if c.target.weight is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            w0, w1 = (
                -math.inf
                if is_zero(c.label)
                else 2.0 * math.log(abs(c.label.scalar)) + c.target.weight[0]
                for c in (u.low, u.high)
            )
            top = max(w0, w1)
            ln = top + math.log(math.exp(w0 - top) + math.exp(w1 - top))
            u.weight = (ln, math.exp(w1 - ln))
        return v.weight

    def measurement_probability(self, e: Edge, k: int, y: int) -> float:
        """Probability that qubit k of |e> reads y.

        Walks down level by level, carrying the probability of each pair
        (node, parity of the label X bits on qubit k along the path), since
        an X or Y factor on qubit k flips the outcome below it.  Builds no
        node and does not recurse."""
        k, y = _index(k, "qubit"), _index(y, "outcome")
        if not 1 <= k <= e.target.index:
            raise EngineError(f"qubit {k} out of range")
        if y not in (0, 1):
            raise EngineError(f"outcome {y!r} is not 0 or 1")
        if is_zero(e.label):
            raise EngineError("zero state has no measurement probabilities")
        self._weights(e.target)
        mass = {(e.target, (e.label.x >> (k - 1)) & 1): 1.0}
        for _ in range(e.target.index - k):
            below: dict = {}
            for (v, par), m in mass.items():
                p1 = v.weight[1]
                for c, p in ((v.low, 1.0 - p1), (v.high, p1)):
                    if p:
                        key = (c.target, par ^ ((c.label.x >> (k - 1)) & 1))
                        below[key] = below.get(key, 0.0) + m * p
            mass = below
        p = 0.0
        for (v, par), m in mass.items():
            p1 = v.weight[1]
            p += m * (p1 if par ^ y else 1.0 - p1)
        return min(max(p, 0.0), 1.0)

    def sample(self, rng, e: Optional[Edge] = None) -> str:
        """One full measurement in the computational basis; leftmost bit is
        the top qubit.

        Walks down one path from the root, taking branch 0 with its
        probability from the node's weights, drawn with one ``rng.random()``.
        Scalars and Z factors of the labels above a level cancel out of its
        branch probabilities, so the walk carries only the X mask of the
        path's label product, as ``measurement_probability`` carries the X
        parity: an X or Y on the level's qubit swaps p1 for 1 - p1 and the
        branch taken for outcome b, and the mask below is the mask's lower
        bits XOR the branch label's X bits.  The walk never enters a zero
        branch, whose probability is exactly 0.  Only node weights are
        computed (and kept on the nodes); no node, label or edge is
        created."""
        e = self.root if e is None else e
        if is_zero(e.label):
            raise EngineError("zero state has no measurement probabilities")
        v, x = e.target, e.label.x
        if v.weight is None:
            self._weights(v)
        bits = []
        while v.index:
            t = v.index - 1
            flip = (x >> t) & 1
            p1 = v.weight[1]
            b = 0 if rng.random() < (p1 if flip else 1.0 - p1) else 1
            bits.append("01"[b])
            c = v.high if b ^ flip else v.low
            x = (x & ((1 << t) - 1)) ^ c.label.x
            v = c.target
        return "".join(bits)

    # -- top-level driver ---------------------------------------------------

    def run_gate(self, name: str, *qubits: int) -> None:
        """Apply a named gate to the current root state.  A gate that raises
        EngineError leaves the root and ``stats.gate_count`` as they were."""
        name = name.lower()
        if self.mode == "qmdd":
            # gate_to_dd checks the gate
            e = self.apply_gate(self.gate_to_dd(name, qubits), self.root)
        else:
            e = self._dispatch(name, self._check_gate(name, qubits))
        self.stats.gate_count += 1
        self.set_root(e)

    def _dispatch(self, name: str, qubits: tuple) -> Edge:
        """The root after gate ``name``, which ``run_gate`` has checked, by
        its structural route (limdd mode)."""
        e = self.root
        if name in ("x", "y", "z"):
            return Edge(mul(single(self.n, qubits[0], name), e.label), e.target)
        if name in _PHASE_GATES:
            return self._phase(e, qubits[0], name)
        if name == "h":
            return self._hadamard(e, qubits[0])
        if name == "cx":
            c, t = qubits
            return self._cpauli_down(e, "X", c, t) if c > t else self._cx_up(e, c, t)
        if name == "cz":
            return self._cpauli_down(e, "Z", max(qubits), min(qubits))
        return e   # i

    def run_mcx(self, controls: Iterable[tuple[int, int]], target: int) -> None:
        """Multi-controlled X on the current root, with gate bookkeeping;
        ``controls`` holds (qubit, wanted bit) pairs.  qmdd mode applies its
        gate diagram, limdd mode ``_mcx``."""
        controls = tuple(
            (_index(q, "qubit"), _index(want, "wanted bit")) for q, want in controls
        )
        target = self._check_qubits((target,) + tuple(q for q, _ in controls))[0]
        if any(want not in (0, 1) for _, want in controls):
            raise EngineError("mcx wanted bits must be 0 or 1")
        if self.mode == "qmdd":
            e = self.apply_gate(self._mcx_to_dd(controls, target), self.root)
        else:
            e = self._mcx(self.root, controls, target)
        self.stats.gate_count += 1
        self.set_root(e)

    def set_root(self, e: Edge) -> None:
        """Make ``e`` the current state.  The one place that tracks the peak
        store size and, in debug mode, re-audits the store."""
        self.root = e
        if self.store.node_count() > self.stats.peak_nodes:
            self.stats.peak_nodes = self.store.node_count()
        if self.debug:
            self.store.audit()

    def collect(self) -> None:
        """Sweep the store down to what the roots reach (the root, ``_ids``
        and the cached gate diagrams) when it holds at least
        ``_SWEEP_RATIO`` times the nodes the last sweep kept; the first call
        always sweeps.  A sweep empties the compute tables; a kept node
        keeps its weights, which live on the node."""
        store = self.store
        if store.node_count() < _SWEEP_RATIO * self._kept:
            return
        self._kept = store.sweep([self.root, *self._ids, *self._gate_dd_cache.values()])
        self.stats.sweeps += 1
        self._add_cache = ScalarKeyedTable()
        self._unary_cache = {}
        self._reach_cache = {}
        self._apply_cache = {}
        if self.debug:
            store.audit()

    def amplitude(self, bits) -> complex:
        return self.store.amplitude(self.root, bits)

    def to_dense(self) -> np.ndarray:
        return self.store.to_dense(self.root)

    def node_count(self) -> int:
        return self.store.reachable_count(self.root)
