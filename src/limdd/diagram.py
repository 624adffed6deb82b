"""Reduced decision diagrams with Pauli-operator edge labels.

A node at level m has a low and a high edge to level m-1; an edge carries a
label that is either a PauliLim on m-1 qubits or the zero operator.  The
represented state is |v> = |0>|low> + |1>(B|high>) and an edge <A, v> means
A|v>.  The leaf (level 0) represents the scalar 1.

Reduction invariants maintained by make_edge:
  * merge: one node per (low target, high label, high target),
  * zero edge: a zero high label forces high target == low target, and low
    labels are never zero,
  * low precedence: low target precedes high target in insertion order,
  * low factoring: low labels are the identity,
  * high determinism: the high label is the canonical representative picked
    by get_labels.

The all-zero vector has no node; it only ever appears as a zero-labelled
edge.  A store with ``group="identity"`` restricts labels to scalars, which
degrades the structure to a plain scalar-normalized diagram (qmdd mode).
There the X/Z corrections behind the swap rule and the high-label choice are
unavailable, so zero low edges are kept as real structure (with the high
label normalized to 1), children are not reordered, and the high label is
stored exactly; stabilizer sets are trivial throughout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .pauli import (
    EPS_EQ,
    GeneratorSet,
    Lim,
    PauliLim,
    ZeroLim,
    conjugate_group,
    format_lim,
    gf2_eliminate,
    identity,
    inverse,
    is_zero,
    mul,
    mul_sign,
    neg,
    phase_exp,
    row_product,
    rref,
    rref_insert,
    scalar_cmp,
    scale,
    single,
    strip_top,
    tensor_top,
    top_factor,
    zero,
)

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class DiagramError(Exception):
    pass


class Node:
    __slots__ = ("index", "low", "high", "nid")

    def __init__(self, index: int, low: Optional["Edge"], high: Optional["Edge"], nid: int):
        self.index = index
        self.low = low
        self.high = high
        self.nid = nid

    def __repr__(self) -> str:
        return f"Node(level={self.index}, id={self.nid})"


class Edge:
    __slots__ = ("label", "target")

    def __init__(self, label: Lim, target: Node):
        self.label = label
        self.target = target

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Edge)
            and self.target is other.target
            and self.label == other.label
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{format_lim(self.label)}, {self.target!r}>"


def scale_edge(c: complex, e: Edge) -> Edge:
    return Edge(scale(c, e.label), e.target)


def _scalar_close(a: complex, b: complex) -> bool:
    return abs(a - b) <= EPS_EQ * max(1.0, abs(a))


class ScalarKeyedTable:
    """Mapping with keys (discrete part, complex scalar).

    The scalar is hashed on a Cartesian grid of 1e-9 cells (real and
    imaginary part each rounded to a multiple of 1e-9).  A lookup probes
    every cell that can hold a stored scalar s with ``_scalar_close(s,
    scalar)``: such an s lies within tol = 2 * EPS_EQ * max(1, |scalar|) of
    the query in each coordinate, so the probed range is round((re +- tol) *
    1e9) x round((im +- tol) * 1e9).  Near |scalar| = 1 that is usually one
    cell.  Matches are confirmed with ``_scalar_close``, so nearly-equal
    scalars from different float paths land on one entry."""

    __slots__ = ("_d",)

    def __init__(self):
        self._d: dict = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._d.values())

    def get(self, disc: tuple, scalar: complex):
        re, im = scalar.real, scalar.imag
        tol = 2.0 * EPS_EQ * max(1.0, abs(scalar))
        d = self._d
        for rc in range(round((re - tol) * 1e9), round((re + tol) * 1e9) + 1):
            for ic in range(round((im - tol) * 1e9), round((im + tol) * 1e9) + 1):
                bucket = d.get((disc, rc, ic))
                if bucket:
                    for s, val in bucket:
                        if _scalar_close(s, scalar):
                            return val
        return None

    def put(self, disc: tuple, scalar: complex, val) -> None:
        key = (disc, round(scalar.real * 1e9), round(scalar.imag * 1e9))
        self._d.setdefault(key, []).append((scalar, val))


def _lim_disc(a: PauliLim) -> tuple:
    return (a.x, a.z)


class DiagramStore:
    """Node storage plus every structural and canonicalization operation.

    ``group`` selects the label group: "pauli" (full labels) or "identity"
    (scalars only).  Nodes are never garbage collected; insertion order is
    the node order used by the low-precedence rule.

    Two memos serve the stabilizer machinery: ``_stab`` holds each node's
    reduced stabilizer generators by node id (a "pauli" store only; an
    identity-group store keeps just the leaf's), and ``_pair_memo`` holds the
    pair record of ``_pair`` (reduced union rows, an opposite element and
    the intersection) by the content of the two groups.  Only pairs whose
    strings differ, both sides nonempty, enter it: a pair with the same
    strings or an empty side has its record read off the groups' rows.

    Trivial-group lane: most nodes of a non-stabilizer state, and every
    node of an identity-group store, have the stabilizer group {I}.  There
    the double-coset minimum of a label is the label itself, so
    ``arg_lex_min``, ``root_label``, ``get_labels`` and ``_stab_recursive``
    answer such queries directly, with what the general path computes on
    that input and without an elimination.  For ``_stab_recursive`` that
    includes a node whose children are one node with group {I}: its group
    is at most one swap row (``_swap_rows``), which covers every level-one
    node with a nonzero high edge.  ``follow`` likewise skips the Pauli
    algebra for a label whose string is the identity."""

    def __init__(self, group: str = "pauli"):
        if group not in ("pauli", "identity"):
            raise ValueError(f"unknown label group {group!r}")
        self.group = group
        self.leaf = Node(0, None, None, 0)
        self.nodes: list[Node] = [self.leaf]
        self._table = ScalarKeyedTable()          # (v0, v1, x, z) + scalar -> Node
        self._zero_high: dict[int, Node] = {}     # v0 nid -> Node
        self._zero_low: dict[int, Node] = {}      # v1 nid -> Node (identity mode)
        self._stab: dict[int, GeneratorSet] = {0: GeneratorSet(0, [])}
        self._empty: dict[int, GeneratorSet] = {0: self._stab[0]}
        self._pair_memo: dict = {}                # content keys -> pair record

    # -- bookkeeping --------------------------------------------------------

    def node_count(self) -> int:
        """Nodes above the leaf."""
        return len(self.nodes) - 1

    def reachable_count(self, e: Edge) -> int:
        """Nodes above the leaf reachable from ``e``."""
        seen: set[int] = set()
        stack = [e.target]
        while stack:
            v = stack.pop()
            if v.nid in seen:
                continue
            seen.add(v.nid)
            if v.index > 0:
                stack.append(v.low.target)
                stack.append(v.high.target)
        return len(seen - {0})

    def empty_set(self, n: int) -> GeneratorSet:
        g = self._empty.get(n)
        if g is None:
            g = GeneratorSet(n, [])
            self._empty[n] = g
        return g

    def _new_node(self, index: int, low: Edge, high: Edge) -> Node:
        v = Node(index, low, high, len(self.nodes))
        self.nodes.append(v)
        return v

    # -- traversal ----------------------------------------------------------

    def follow(self, e: Edge, b: int) -> Edge:
        """The b-branch of the state A|v>, label flips folded in."""
        v = e.target
        if v.index == 0:
            raise DiagramError("cannot follow below the leaf")
        a = e.label
        if is_zero(a):
            return Edge(zero(v.index - 1), v.low.target)
        if not (a.x or a.z):
            # a scalar label: no flip, no sign, only the scalar to fold in
            branch = v.high if b else v.low
            c = branch.label
            if is_zero(c):
                return Edge(c, branch.target)
            return Edge(PauliLim(c.n, c.x, c.z, a.scalar * c.scalar), branch.target)
        x, zb = top_factor(a)
        rest = strip_top(a)
        z1 = _PHASES[(x & zb) % 4]
        z2 = -z1 if zb else z1
        branch = v.low if x == b else v.high
        diag = z1 if x == b else z2
        if is_zero(branch.label):
            return Edge(zero(v.index - 1), branch.target)
        return Edge(mul(scale(diag, rest), branch.label), branch.target)

    def amplitude(self, e: Edge, bits) -> complex:
        """Amplitude of the basis state given as bits with bits[0] the top qubit."""
        seq = [int(b) for b in bits]
        if len(seq) != e.target.index:
            raise DiagramError(
                f"expected {e.target.index} bits, got {len(seq)}"
            )
        if any(b not in (0, 1) for b in seq):
            raise DiagramError("bits must be 0 or 1")
        for b in seq:
            e = self.follow(e, b)
        if is_zero(e.label):
            return 0j
        return e.label.scalar

    def to_dense(self, e: Edge) -> np.ndarray:
        """Dense statevector (index bit k-1 = qubit k, top qubit most significant)."""
        memo: dict[int, np.ndarray] = {}

        def node_vec(v: Node) -> np.ndarray:
            if v.index == 0:
                return np.ones(1, dtype=complex)
            got = memo.get(v.nid)
            if got is None:
                got = np.concatenate(
                    [edge_vec(v.low, v.index - 1), edge_vec(v.high, v.index - 1)]
                )
                memo[v.nid] = got
            return got

        def edge_vec(edge: Edge, m: int) -> np.ndarray:
            if is_zero(edge.label):
                return np.zeros(1 << m, dtype=complex)
            return lim_apply_dense(edge.label, node_vec(edge.target))

        return edge_vec(e, e.target.index)

    # -- stabilizer machinery ----------------------------------------------

    def _pair(self, g0: GeneratorSet, g1: GeneratorSet) -> tuple:
        """The pair record (rows, sels, opp, meet) of g0 and g1.

        * rows, sels: reduced row basis of the strings of <g0 union g1> as
          (x, z) pairs, and per row the selection mask of the generators
          whose product has that string: the low len(g0) bits pick g0
          rows, the rest pick g1 rows.  ``sels`` None means row i selects
          bit i alone.
        * opp: (x, z, sign bit) of some h in <g0> with -h in <g1>, or None.
        * meet: <g0> meet <g1>, reduced.

        The kernel pairs of an elimination over the stacked strings are the
        elements of <g0> and <g1> that share a string.  Sign quotients are
        multiplicative over the kernel (commuting +-1 generators square to
        +I exactly), so the first pair whose exact products disagree is the
        opposite element, and multiplying one disagreeing pair into every
        other makes the rest of the meet.

        Two reduced groups with the same strings (always so for a node
        whose children are one node) or with one side empty need no
        elimination and take no memo entry: the rows are the group's own,
        the kernel pairs are row i of each side, so the clashes are
        ``g0.signs ^ g1.signs``, and the first clash (the highest pivot) is
        ``opp``.  Multiplying the lowest-pivot clash into the other clashes
        keeps every pivot and clears none, so the meet comes out reduced.
        Other pairs run the elimination once, memoized by content."""
        r0, r1 = g0.rows, g1.rows
        n = g0.n
        if g0.reduced and g1.reduced:
            if not (r0 and r1):
                return r0 or r1, None, None, self.empty_set(n)
            if r0 is r1 or r0 == r1:
                return (r0, None) + _same_string_meet(g0, g1.signs)
        memo_key = (g0.content_key(), g1.content_key())
        got = self._pair_memo.get(memo_key)
        if got is not None:
            return got
        k0 = len(r0)
        low = (1 << k0) - 1
        mask = (1 << n) - 1
        reduced, kernel = gf2_eliminate([(x << n) | z for x, z in r0 + r1])
        rows = tuple((k >> n, k & mask) for k, _ in reduced)
        sels = tuple(sel for _, sel in reduced)
        agree: list = []
        clash: list = []
        for sel in kernel:
            p0 = row_product(r0, g0.signs, sel & low)
            s1 = row_product(r1, g1.signs, sel >> k0)[2]
            (clash if p0[2] != s1 else agree).append(p0)
        opp = clash[0] if clash else None
        for x, z, s in clash[1:]:
            agree.append((x ^ opp[0], z ^ opp[1], s ^ opp[2] ^ mul_sign(x, z, opp[0], opp[1])))
        if agree:
            signs = sum(s << i for i, (_, _, s) in enumerate(agree))
            unreduced = GeneratorSet.packed(n, tuple((x, z) for x, z, _ in agree), signs, False)
            meet = rref(unreduced)
        else:
            meet = self.empty_set(n)
        got = (rows, sels, opp, meet)
        self._pair_memo[memo_key] = got
        return got

    def arg_lex_min(
        self, g0: GeneratorSet, g1: GeneratorSet, a: PauliLim
    ) -> tuple[PauliLim, PauliLim, PauliLim]:
        """(w0, w1, value): w0 in <g0>, w1 in <g1>, value = a.w0.w1 is the
        lexicographic minimum of the double coset, phase included.

        Reducing a's string by the pair's rows gives the smallest string in
        the coset and the w0, w1 that reach it; the only other element with
        that string is its negation, reached through the opposite element."""
        n = a.n
        if not (g0.rows or g1.rows):
            return identity(n), identity(n), a
        rows, sels, opp, _ = self._pair(g0, g1)
        x, z, sel = a.x, a.z, 0
        for i, (rx, rz) in enumerate(rows):
            if (x ^ rx < x) if rx else (z ^ rz < z):
                x ^= rx
                z ^= rz
                sel ^= sels[i] if sels else 1 << i
        k0 = len(g0.rows)
        x0, z0, s0 = row_product(g0.rows, g0.signs, sel & ((1 << k0) - 1))
        x1, z1, s1 = row_product(g1.rows, g1.signs, sel >> k0)
        e = phase_exp(a.x, a.z, x0, z0) + phase_exp(a.x ^ x0, a.z ^ z0, x1, z1)
        cand = PauliLim(n, x, z, a.scalar * _PHASES[(e + 2 * (s0 ^ s1)) % 4])
        if opp is not None:
            alt = neg(cand)
            if scalar_cmp(alt.scalar, cand.scalar) < 0:
                ox, oz, so = opp
                s0 ^= so ^ mul_sign(x0, z0, ox, oz)
                s1 ^= 1 ^ so ^ mul_sign(ox, oz, x1, z1)
                return _lim(n, x0 ^ ox, z0 ^ oz, s0), _lim(n, x1 ^ ox, z1 ^ oz, s1), alt
        return _lim(n, x0, z0, s0), _lim(n, x1, z1, s1), cand

    def root_label(self, e: Edge) -> PauliLim:
        """Canonical representative of label modulo the target's stabilizers."""
        if is_zero(e.label):
            raise DiagramError("zero edges have no root label")
        v = e.target
        g = self.get_stabilizer_gen_set(v)
        if not g.rows:
            return e.label
        return self.arg_lex_min(g, self.empty_set(v.index), e.label)[2]

    def intersect_stabilizer_groups(
        self, g0: GeneratorSet, g1: GeneratorSet
    ) -> GeneratorSet:
        """<g0> meet <g1>, reduced (from the pair record).  Part of the
        stabilizer toolkit; the store reads the meet from ``_pair``
        directly."""
        return self._pair(g0, g1)[3]

    def get_stabilizer_gen_set(self, v: Node) -> GeneratorSet:
        """Generators of the Pauli stabilizer subgroup of |v>, cached per
        node.  In an identity-group store every group is {I}, returned
        without a cache entry."""
        if self.group == "identity":
            return self.empty_set(v.index)
        got = self._stab.get(v.nid)
        if got is not None:
            return got
        res = self._stab_recursive(v)
        self._stab[v.nid] = res
        return res

    def _stab_recursive(self, v: Node) -> GeneratorSet:
        # I (x) a reduced basis is the same rows and still reduced, so the
        # node's basis is the children's common part plus at most three
        # inserted rows
        m = v.index
        v0 = v.low.target
        g0 = self.get_stabilizer_gen_set(v0)
        if is_zero(v.high.label):
            return rref_insert(GeneratorSet.packed(m, g0.rows, g0.signs), [single(m, m, "Z")])
        a1 = v.high.label
        v1 = v.high.target
        g1 = g0 if v1 is v0 else self.get_stabilizer_gen_set(v1)
        if not (g0.rows or g1.rows):
            # no meet and no opposite element; at most one swap row holds
            rows = _swap_rows(a1, None) if v0 is v1 else []
            return GeneratorSet(m, rows) if rows else self.empty_set(m)
        _, _, opp, meet = self._pair(g0, conjugate_group(a1, g1))
        # diagonal stabilizers: I (x) (G0 meet G1) and Z (x) h, h in G0, -h in G1
        new = []
        if opp is not None:
            opp = _lim(m - 1, *opp)
            new.append(tensor_top("Z", opp))
        # antidiagonal stabilizers need the children to be isomorphic, which
        # canonicity turns into the children being the same node; the rows
        # then follow from the high label's scalar (``_swap_rows``)
        if v0 is v1:
            new += _swap_rows(a1, opp)
        return rref_insert(GeneratorSet.packed(m, meet.rows, meet.signs), new)

    # -- canonicalizing constructor -----------------------------------------

    def get_labels(
        self, a_hat: PauliLim, v0: Node, v1: Node
    ) -> tuple[PauliLim, PauliLim]:
        """Canonical high label for the isomorphism class of node(I v0, a_hat v1)
        and the root correction so that <B_root, node(I v0, B_high v1)> equals
        |0>|v0> + |1> a_hat |v1>."""
        if self.group == "identity":
            # the only isomorphisms available are scalars, and low factoring
            # already spent the scalar freedom: no normalization choice left
            if not a_hat.is_identity_string():
                raise DiagramError("identity-group store cannot hold Pauli labels")
            return a_hat, identity(a_hat.n + 1)
        g0 = self.get_stabilizer_gen_set(v0)
        g1 = self.get_stabilizer_gen_set(v1)
        lam = a_hat.scalar
        p_unit = PauliLim(a_hat.n, a_hat.x, a_hat.z, 1.0)
        if g0.rows or g1.rows:
            w0, w1, _ = self.arg_lex_min(g0, g1, a_hat)
            m = mul(mul(w0, p_unit), w1)
        else:
            w0, m = identity(a_hat.n), p_unit
        # every candidate carries m's string, so only the scalars compete
        best = None
        choice = (0, 0)
        xs_options = ((0, 0), (0, 1), (1, 0), (1, 1)) if v0 is v1 else ((0, 0), (0, 1))
        for x, s in xs_options:
            lam_x = lam if x == 0 else 1.0 / lam
            cand = (-lam_x if s else lam_x) * m.scalar
            if best is None or scalar_cmp(cand, best) < 0:
                best = cand
                choice = (x, s)
        x, s = choice
        b_root = tensor_top("Z" if s else "I", inverse(w0))
        if x:
            b_root = mul(tensor_top("X", a_hat), b_root)
        return PauliLim(m.n, m.x, m.z, best), b_root

    def make_edge(self, e0: Edge, e1: Edge) -> Edge:
        """The canonical edge for |0>|e0> + |1>|e1>; the single way nodes enter
        the store."""
        a, b = e0.label, e1.label
        v0, v1 = e0.target, e1.target
        if v0.index != v1.index:
            raise DiagramError("children must sit on the same level")
        if is_zero(a) and is_zero(b):
            raise DiagramError("the all-zero vector has no node")
        m = v0.index
        if self.group == "identity":
            if is_zero(a):
                # no X correction available to swap the zero branch away;
                # keep a zero low edge, normalized to a unit high label
                node = self._zero_low.get(v1.nid)
                if node is None:
                    node = self._new_node(
                        m + 1, Edge(zero(m), v1), Edge(identity(m), v1)
                    )
                    self._zero_low[v1.nid] = node
                return Edge(tensor_top("I", b), node)
        elif is_zero(a) or (not is_zero(b) and v0.nid > v1.nid):
            res = self.make_edge(e1, e0)
            return Edge(mul(single(m + 1, m + 1, "X"), res.label), res.target)
        if is_zero(b):
            node = self._zero_high.get(v0.nid)
            if node is None:
                node = self._new_node(
                    m + 1, Edge(identity(m), v0), Edge(zero(m), v0)
                )
                self._zero_high[v0.nid] = node
                self.get_stabilizer_gen_set(node)
            return Edge(tensor_top("I", a), node)
        a_hat = mul(inverse(a), b)
        b_high, b_root = self.get_labels(a_hat, v0, v1)
        disc = (v0.nid, v1.nid) + _lim_disc(b_high)
        node = self._table.get(disc, b_high.scalar)
        if node is None:
            node = self._new_node(m + 1, Edge(identity(m), v0), Edge(b_high, v1))
            self._table.put(disc, b_high.scalar, node)
            self.get_stabilizer_gen_set(node)
        return Edge(mul(tensor_top("I", a), b_root), node)

    # -- diagnostics ---------------------------------------------------------

    def audit(self) -> None:
        """Re-walk the store checking every reduction invariant; raises on
        violation.  Meant for debug runs and tests."""
        for v in self.nodes[1:]:
            low, high = v.low, v.high
            if low.target.index != v.index - 1 or high.target.index != v.index - 1:
                raise DiagramError(f"{v!r}: child level mismatch")
            if is_zero(low.label):
                if self.group != "identity":
                    raise DiagramError(f"{v!r}: zero low label")
                if high.target is not low.target or not (
                    high.label.is_identity_string() and high.label.scalar == 1.0
                ):
                    raise DiagramError(f"{v!r}: malformed zero-low node")
                continue
            if not (low.label.is_identity_string() and low.label.scalar == 1.0):
                raise DiagramError(f"{v!r}: low label not identity")
            if is_zero(high.label):
                if high.target is not low.target:
                    raise DiagramError(f"{v!r}: zero high edge with distinct target")
                continue
            if self.group == "pauli" and low.target.nid > high.target.nid:
                raise DiagramError(f"{v!r}: low precedence violated")
            bh, _ = self.get_labels(high.label, low.target, high.target)
            if (bh.x, bh.z) != (high.label.x, high.label.z) or not _scalar_close(
                bh.scalar, high.label.scalar
            ):
                raise DiagramError(
                    f"{v!r}: high label {format_lim(high.label)} is not the "
                    f"canonical {format_lim(bh)}"
                )

    def to_dot(self, e: Edge) -> str:
        """Graphviz text for the DAG under ``e``: one rank per level, dashed
        low edges, solid high edges, labels in debug form."""
        reach: dict[int, Node] = {}
        stack = [e.target]
        while stack:
            v = stack.pop()
            if v.nid in reach:
                continue
            reach[v.nid] = v
            if v.index > 0:
                stack.append(v.low.target)
                stack.append(v.high.target)
        lines = [
            "digraph limdd {",
            "  rankdir=TB;",
            '  root [shape=none, label=""];',
            f'  root -> n{e.target.nid} [label="{format_lim(e.label)}"];',
        ]
        by_level: dict[int, list[Node]] = {}
        for v in reach.values():
            by_level.setdefault(v.index, []).append(v)
        for level in sorted(by_level, reverse=True):
            group = by_level[level]
            names = "; ".join(f"n{v.nid}" for v in group)
            lines.append(f"  {{ rank=same; {names}; }}")
            for v in group:
                shape = "box" if level == 0 else "circle"
                text = "1" if level == 0 else str(level)
                lines.append(f'  n{v.nid} [shape={shape}, label="{text}"];')
                if level == 0:
                    continue
                lines.append(
                    f"  n{v.nid} -> n{v.low.target.nid} "
                    f'[style=dashed, label="{format_lim(v.low.label)}"];'
                )
                lines.append(
                    f"  n{v.nid} -> n{v.high.target.nid} "
                    f'[style=solid, label="{format_lim(v.high.label)}"];'
                )
        lines.append("}")
        return "\n".join(lines)


def _swap_rows(a1: PauliLim, opp: Optional[PauliLim]) -> list[PauliLim]:
    """The X (x) h and Y (x) h stabilizers of |0>|w> + |1>a1|w>, a node
    whose children are one node |w> with group G; ``opp`` is the pair
    record's element of G that anticommutes with a1, or None.

    X (x) h swaps the halves, so it stabilizes the node exactly when h|w> =
    a1|w> and h a1|w> = |w>; Y (x) h exactly when h|w> = -i a1|w> and h
    a1|w> = i|w>.  So h = p g with p = c a1 (c = 1 for X, -i for Y) and g in
    G.  With a1 = lambda P, p p = q I for q = (c lambda)^2, and h a1 = c^-1 p
    g p = +-q c^-1 g, minus when g anticommutes with P: the second condition
    holds exactly when +-q = 1.  Up to the rows I (x) g of the meet, g = I
    when q = 1 and g = opp when q = -1.  q for Y is -q for X, so without
    ``opp`` at most one row holds."""
    s = a1.scalar * a1.scalar
    rows = []
    for letter, c, q in (("X", 1.0, s), ("Y", -1j, -s)):
        if abs(q - 1.0) <= EPS_EQ:
            rows.append(tensor_top(letter, a1, c))
        elif opp is not None and abs(q + 1.0) <= EPS_EQ:
            rows.append(tensor_top(letter, mul(scale(c, a1), opp)))
    return rows


def _lim(n: int, x: int, z: int, s: int) -> PauliLim:
    """The PauliLim of a packed element: string (x, z), sign bit s."""
    return PauliLim(n, x, z, -1.0 if s else 1.0)


def _same_string_meet(g0: GeneratorSet, signs1: int) -> tuple:
    """(opp, meet) of the pair record of reduced g0 and the group with g0's
    rows and signs ``signs1`` (see ``DiagramStore._pair``)."""
    clash = g0.signs ^ signs1
    if not clash:
        return None, g0
    rows = g0.rows
    first = (clash & -clash).bit_length() - 1
    opp = rows[first] + ((g0.signs >> first) & 1,)
    base = clash.bit_length() - 1
    bx, bz = rows[base]
    bs = (g0.signs >> base) & 1
    out = list(rows)
    signs = g0.signs
    rest = clash ^ (1 << base)
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        x, z = out[i]
        signs ^= (bs ^ mul_sign(x, z, bx, bz)) << i
        out[i] = (x ^ bx, z ^ bz)
        rest ^= low
    del out[base]
    signs = (signs & ((1 << base) - 1)) | ((signs >> (base + 1)) << base)
    return opp, GeneratorSet.packed(g0.n, tuple(out), signs)


def lim_apply_dense(a: Lim, vec: np.ndarray) -> np.ndarray:
    """Apply a LIM to a dense vector (to_dense, the annealer's moves, and
    the oracle route for tests)."""
    if isinstance(a, ZeroLim):
        return np.zeros_like(vec)
    if a.x == 0 and a.z == 0:
        return a.scalar * vec
    dim = vec.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    src = idx ^ a.x
    par = src & a.z
    for shift in (32, 16, 8, 4, 2, 1):
        par ^= par >> shift
    signs = 1.0 - 2.0 * (par & 1)
    phase = a.scalar * _PHASES[(a.x & a.z).bit_count() % 4]
    return phase * signs * vec[src]
