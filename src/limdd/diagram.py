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

from typing import TYPE_CHECKING, Optional

from .pauli import (
    EPS_EQ,
    EPS_ORD,
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
    tensor_top,
    zero,
)

if TYPE_CHECKING:
    import numpy as np

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# the accepted forms of a basis bit (``amplitude``)
_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


class DiagramError(Exception):
    pass


class Node:
    """A node and the facts that depend on it alone: ``stab``, the reduced
    generators of its Pauli stabilizer group, set when the store creates
    it; and ``weight``, (ln of its squared norm, probability that its top
    qubit reads 1), None until ``Engine._weights`` fills it."""

    __slots__ = ("index", "low", "high", "nid", "stab", "weight")

    def __init__(
        self,
        index: int,
        low: Optional["Edge"],
        high: Optional["Edge"],
        nid: int,
        stab: GeneratorSet,
    ):
        self.index = index
        self.low = low
        self.high = high
        self.nid = nid
        self.stab = stab
        self.weight: Optional[tuple[float, float]] = None

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
    cell, and then only that cell is probed.  Matches are confirmed with
    ``_scalar_close``, so nearly-equal scalars from different float paths
    land on one entry."""

    __slots__ = ("_d",)

    def __init__(self):
        self._d: dict = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._d.values())

    def get(self, disc: tuple, scalar: complex):
        re, im = scalar.real, scalar.imag
        tol = 2.0 * EPS_EQ * max(1.0, abs(scalar))
        r0, r1 = round((re - tol) * 1e9), round((re + tol) * 1e9)
        i0, i1 = round((im - tol) * 1e9), round((im + tol) * 1e9)
        d = self._d
        if r0 == r1 and i0 == i1:
            for s, val in d.get((disc, r0, i0), ()):
                if _scalar_close(s, scalar):
                    return val
            return None
        for rc in range(r0, r1 + 1):
            for ic in range(i0, i1 + 1):
                for s, val in d.get((disc, rc, ic), ()):
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
    (scalars only).  Node ids come from a counter that never reuses an id,
    and id order is the node order used by the low-precedence rule.

    ``sweep(roots)`` drops every node that no root edge reaches and rebuilds
    the unique tables from the survivors.  Survivors keep their ids, so low
    precedence stays valid without renumbering, and a node's group and
    weights are fields of the node, so they go where it goes.  An edge held
    across a sweep still denotes its state, since a node's edges never
    change and ids are never reused; but the store no longer knows a
    dropped node, so building the same state again makes a new node.
    Canonicity (one node per state) therefore holds among the nodes the
    store keeps, and an edge to a dropped node must not be handed back to
    ``make_edge``.

    Each node's reduced stabilizer generators are its ``stab`` field, set
    once by ``_new_node`` from the children's groups (``_node_group``); in
    an identity-group store every group is empty.  The one memo of the
    stabilizer machinery is ``_pair_memo``: the pair record of ``_pair``
    (reduced union rows, an opposite element and the intersection) by the
    content of the two groups.  Only pairs whose strings differ, both sides
    nonempty, enter it: a pair with the same strings or an empty side has
    its record read off the groups' rows.

    Trivial-group lane: most nodes of a non-stabilizer state, and every
    node of an identity-group store, have the stabilizer group {I}.  There
    the double-coset minimum of a label is the label itself.  ``make_edge``
    takes the lane when both children's groups have no rows.  It computes
    the string, phase and scalar of a^-1 b from the packed ints, in mul's
    float order, without building a^-1 or the product;
    ``_trivial_choice`` picks the high scalar, ``_trivial_root`` builds the
    root label (directly from a when no branch swap is taken), and
    ``_node_group`` gives a new node at most one swap row (``_swap_rows``),
    with no call to ``get_labels``, ``get_stabilizer_gen_set`` or the coset
    machinery.  ``get_labels`` answers trivial groups with the same
    helpers, and ``arg_lex_min`` and ``root_label`` return the label itself,
    so every route computes the same result without an elimination.
    ``follow`` computes a branch label in one product, and skips the Pauli
    algebra for a label whose string is the identity; ``leaf_scalars``
    reads a level-1 edge's two amplitudes by follow's float operations
    without building either branch."""

    def __init__(self, group: str = "pauli"):
        if group not in ("pauli", "identity"):
            raise ValueError(f"unknown label group {group!r}")
        self.group = group
        self.leaf = Node(0, None, None, 0, GeneratorSet(0, []))
        self.leaf.weight = (0.0, 0.0)             # the scalar 1: norm 1, no top qubit
        self.nodes: list[Node] = [self.leaf]      # creation (= id) order
        self._next_id = 1
        self._table = ScalarKeyedTable()          # (v0, v1, x, z) + scalar -> Node
        self._zero_high: dict[int, Node] = {}     # v0 nid -> Node
        self._zero_low: dict[int, Node] = {}      # v1 nid -> Node (identity mode)
        self._empty: dict[int, GeneratorSet] = {0: self.leaf.stab}
        self._pair_memo: dict = {}                # content keys -> pair record

    # -- bookkeeping --------------------------------------------------------

    def node_count(self) -> int:
        """Nodes above the leaf that the store holds (kept by the last
        sweep or created since)."""
        return len(self.nodes) - 1

    def nodes_created(self) -> int:
        """Nodes above the leaf ever created, swept ones included."""
        return self._next_id - 1

    def reachable_count(self, e: Edge) -> int:
        """Nodes above the leaf reachable from ``e``."""
        return len(self._reach([e])) - 1

    def _reach(self, roots) -> dict[int, Node]:
        """The leaf and every node reachable from the edges ``roots``, by
        id; marked on an explicit stack."""
        seen = {0: self.leaf}
        stack = [e.target for e in roots]
        while stack:
            v = stack.pop()
            if v.nid in seen:
                continue
            seen[v.nid] = v
            stack.append(v.low.target)
            stack.append(v.high.target)
        return seen

    def empty_set(self, n: int) -> GeneratorSet:
        g = self._empty.get(n)
        if g is None:
            g = GeneratorSet(n, [])
            self._empty[n] = g
        return g

    def _new_node(self, index: int, low: Edge, high: Edge) -> Node:
        g = self._node_group(index, low.target, high.label, high.target)
        v = Node(index, low, high, self._next_id, g)
        self._next_id += 1
        self.nodes.append(v)
        return v

    def sweep(self, roots) -> int:
        """Keep only the nodes reachable from the edges ``roots`` (the leaf
        always); returns the number of nodes kept above the leaf.

        Marks from the roots on an explicit stack, keeps ``nodes`` in
        creation order, rebuilds the unique table, ``_zero_high`` and
        ``_zero_low`` from the survivors under ``make_edge``'s keys and
        empties ``_pair_memo``, the one memo.  A survivor's group and
        weights are fields of the node, so nothing else is filtered."""
        marked = self._reach(roots)
        self.nodes = [v for v in self.nodes if v.nid in marked]
        table = self._table = ScalarKeyedTable()
        zero_high = self._zero_high = {}
        zero_low = self._zero_low = {}
        for v in self.nodes[1:]:
            low, high = v.low, v.high
            if is_zero(low.label):
                zero_low[high.target.nid] = v
            elif is_zero(high.label):
                zero_high[low.target.nid] = v
            else:
                disc = (low.target.nid, high.target.nid) + _lim_disc(high.label)
                table.put(disc, high.label.scalar, v)
        self._pair_memo = {}
        return len(self.nodes) - 1

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
        # a = lambda P (x) R: the top factor P picks the branch and a phase,
        # and the branch label becomes (phase lambda R) . c in one product
        t = v.index - 1
        x, zb = (a.x >> t) & 1, (a.z >> t) & 1
        branch = v.low if x == b else v.high
        c = branch.label
        if is_zero(c):
            return Edge(zero(t), branch.target)
        diag = _PHASES[x & zb]
        if zb and x != b:
            diag = -diag
        mask = (1 << t) - 1
        rx, rz = a.x & mask, a.z & mask
        phi = phase_exp(rx, rz, c.x, c.z)
        return Edge(
            PauliLim(t, rx ^ c.x, rz ^ c.z, diag * a.scalar * c.scalar * _PHASES[phi]),
            branch.target,
        )

    def leaf_scalars(self, e: Edge) -> tuple[Optional[complex], Optional[complex]]:
        """The two amplitudes of a nonzero edge on a level-1 node: the
        scalar of ``follow(e, b)``'s label for b = 0, 1, by follow's float
        operations, and None for a zero branch (a zero high edge, or an
        identity-group store's zero low edge).  Builds no label or edge."""
        v, a = e.target, e.label
        lo, hi = v.low.label, v.high.label
        s = a.scalar
        if not (a.x or a.z):
            return (
                None if is_zero(lo) else s * lo.scalar,
                None if is_zero(hi) else s * hi.scalar,
            )
        # one qubit: the label is an X, Y or Z factor; X or Y swaps the
        # branches, and Z or Y negates the phase on branch x ^ 1
        x, zb = a.x, a.z
        d = _PHASES[x & zb]
        nd = -d if zb else d
        if x:
            c0, c1, d0, d1 = hi, lo, nd, d
        else:
            c0, c1, d0, d1 = lo, hi, d, nd
        p = _PHASES[0]
        return (
            None if is_zero(c0) else d0 * s * c0.scalar * p,
            None if is_zero(c1) else d1 * s * c1.scalar * p,
        )

    def amplitude(self, e: Edge, bits) -> complex:
        """Amplitude of the basis state given as bits with bits[0] the top qubit."""
        try:
            seq = [_BITS[b] for b in bits]
        except (KeyError, TypeError):
            raise DiagramError(f"bits must be 0 or 1, got {bits!r}") from None
        if len(seq) != e.target.index:
            raise DiagramError(
                f"expected {e.target.index} bits, got {len(seq)}"
            )
        for b in seq:
            e = self.follow(e, b)
        if is_zero(e.label):
            return 0j
        return e.label.scalar

    def to_dense(self, e: Edge) -> np.ndarray:
        """Dense statevector (index bit k-1 = qubit k, top qubit most significant)."""
        import numpy as np

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
        """Generators of the Pauli stabilizer subgroup of |v>: the node's
        ``stab`` field.  In an identity-group store every group is {I}."""
        return v.stab

    def _node_group(self, m: int, v0: Node, a1: Lim, v1: Node) -> GeneratorSet:
        """The reduced group of the level-m node (I v0, a1 v1), from its
        children's groups; empty in an identity-group store."""
        if self.group == "identity":
            return self.empty_set(m)
        # I (x) a reduced basis is the same rows and still reduced, so the
        # node's basis is the children's common part plus at most three
        # inserted rows
        g0 = v0.stab
        if is_zero(a1):
            return rref_insert(GeneratorSet.packed(m, g0.rows, g0.signs), [single(m, m, "Z")])
        g1 = v1.stab
        if not (g0.rows or g1.rows):
            # no meet and no opposite element: at most one swap row, and
            # only when the children are one node
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

    def _trivial_choice(self, hx: int, hz: int, lam: complex, same: bool) -> tuple[complex, int, int]:
        """(scalar, x, s) of the canonical high label scalar * P of
        node(I v0, a_hat v1), a_hat = lam P and P the string (hx, hz), when
        both children have the group {I} (every child of an identity-group
        store does): the double coset of a_hat is a_hat alone, so only the
        scalar is chosen, from lam and -lam and, when the children are one
        node (``same``), 1/lam and -1/lam.  x says the 1/lam branch swap was
        taken, s the sign flip; ``_trivial_root`` turns them into the root
        correction.  An identity-group store has no X or Z correction, so
        it keeps lam and rejects a Pauli string."""
        if self.group == "identity":
            if hx or hz:
                raise DiagramError("identity-group store cannot hold Pauli labels")
            return lam, 0, 0
        return _pick_scalar(lam, 1.0, same)

    def get_labels(
        self, a_hat: PauliLim, v0: Node, v1: Node
    ) -> tuple[PauliLim, PauliLim]:
        """Canonical high label for the isomorphism class of node(I v0, a_hat v1)
        and the root correction so that <B_root, node(I v0, B_high v1)> equals
        |0>|v0> + |1> a_hat |v1>."""
        n = a_hat.n
        g0 = self.get_stabilizer_gen_set(v0)
        g1 = self.get_stabilizer_gen_set(v1)
        if not (g0.rows or g1.rows):
            hx, hz, lam = a_hat.x, a_hat.z, a_hat.scalar
            best, x, s = self._trivial_choice(hx, hz, lam, v0 is v1)
            return PauliLim(n, hx, hz, best), _trivial_root(identity(n), hx, hz, lam, x, s)
        w0, w1, _ = self.arg_lex_min(g0, g1, a_hat)
        m = mul(mul(w0, PauliLim(n, a_hat.x, a_hat.z, 1.0)), w1)
        # every candidate carries m's string, so only the scalars compete
        best, x, s = _pick_scalar(a_hat.scalar, m.scalar, v0 is v1)
        b_root = tensor_top("Z" if s else "I", inverse(w0))
        if x:
            b_root = mul(tensor_top("X", a_hat), b_root)
        return PauliLim(n, m.x, m.z, best), b_root

    def make_edge(self, e0: Edge, e1: Edge) -> Edge:
        """The canonical edge for |0>|e0> + |1>|e1>; the single way nodes enter
        the store."""
        a, b = e0.label, e1.label
        v0, v1 = e0.target, e1.target
        if v0.index != v1.index:
            raise DiagramError("children must sit on the same level")
        za, zb = is_zero(a), is_zero(b)
        if za and zb:
            raise DiagramError("the all-zero vector has no node")
        m = v0.index
        if self.group == "identity":
            if za:
                # no X correction available to swap the zero branch away;
                # keep a zero low edge, normalized to a unit high label
                node = self._zero_low.get(v1.nid)
                if node is None:
                    node = self._new_node(
                        m + 1, Edge(zero(m), v1), Edge(identity(m), v1)
                    )
                    self._zero_low[v1.nid] = node
                return Edge(tensor_top("I", b), node)
        elif za or (not zb and v0.nid > v1.nid):
            res = self.make_edge(e1, e0)
            return Edge(mul(single(m + 1, m + 1, "X"), res.label), res.target)
        if zb:
            node = self._zero_high.get(v0.nid)
            if node is None:
                node = self._new_node(
                    m + 1, Edge(identity(m), v0), Edge(zero(m), v0)
                )
                self._zero_high[v0.nid] = node
            return Edge(tensor_top("I", a), node)
        if not (v0.stab.rows or v1.stab.rows):
            # trivial-group lane (every pair of an identity-group store):
            # a_hat = a^-1 b as string (hx, hz) and scalar lam, by mul's
            # float operations on inverse(a) and b
            hx, hz = a.x ^ b.x, a.z ^ b.z
            lam = (1.0 / a.scalar) * b.scalar * _PHASES[phase_exp(a.x, a.z, b.x, b.z)]
            best, x, s = self._trivial_choice(hx, hz, lam, v0 is v1)
            disc = (v0.nid, v1.nid, hx, hz)
            node = self._table.get(disc, best)
            if node is None:
                b_high = PauliLim(m, hx, hz, best)
                node = self._new_node(m + 1, Edge(identity(m), v0), Edge(b_high, v1))
                self._table.put(disc, best, node)
            return Edge(_trivial_root(a, hx, hz, lam, x, s), node)
        a_hat = mul(inverse(a), b)
        b_high, b_root = self.get_labels(a_hat, v0, v1)
        disc = (v0.nid, v1.nid) + _lim_disc(b_high)
        node = self._table.get(disc, b_high.scalar)
        if node is None:
            node = self._new_node(m + 1, Edge(identity(m), v0), Edge(b_high, v1))
            self._table.put(disc, b_high.scalar, node)
        return Edge(mul(tensor_top("I", a), b_root), node)

    # -- diagnostics ---------------------------------------------------------

    def audit(self) -> None:
        """Re-walk the store checking every reduction invariant and every
        node's group, re-derived from its children's; raises on violation.
        Meant for debug runs and tests."""
        for v in self.nodes[1:]:
            low, high = v.low, v.high
            if low.target.index != v.index - 1 or high.target.index != v.index - 1:
                raise DiagramError(f"{v!r}: child level mismatch")
            g = self._node_group(v.index, low.target, high.label, high.target)
            if g.content_key() != v.stab.content_key():
                raise DiagramError(f"{v!r}: stored group is not the one its children give")
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
        reach = self._reach([e])
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


def _pick_scalar(lam: complex, ms: complex, same: bool) -> tuple[complex, int, int]:
    """(best, x, s): the scalar_cmp-least of (+-lam_x) * ms, lam_0 = lam and,
    when ``same``, lam_1 = 1/lam; ties keep the earlier (x, s).

    Each sign pair is settled by ``_signed`` without an angle.  The two pair
    winners differ by magnitude unless |lam| is near 1; only a magnitude
    tie (within EPS_ORD) between unequal winners goes to scalar_cmp."""
    c, s = _signed(lam, ms)
    if not same:
        return c, 0, s
    c1, s1 = _signed(1.0 / lam, ms)
    if c1 != c:
        r1, r = abs(c1), abs(c)
        less = r1 < r if abs(r1 - r) > EPS_ORD else scalar_cmp(c1, c) < 0
        if less:
            return c1, 1, s1
    return c, 0, s


def _signed(lam: complex, ms: complex) -> tuple[complex, int]:
    """(c, s): the scalar_cmp-lesser of lam * ms (s = 0) and -lam * ms
    (s = 1), earlier on a tie.

    The two have one magnitude and angles pi apart, and scalar_cmp snaps
    angles within EPS_ORD below 2 pi to 0, so -lam * ms is the lesser
    exactly when the angle of lam * ms lies in [pi - EPS_ORD, 2 pi -
    EPS_ORD): a half-plane test.  A scalar off the real axis by more than
    1e-6 of its real part, or by at most 1e-12 of it, is clear of both
    edges; only one in between, where the edges lie, goes to scalar_cmp."""
    c = lam * ms
    off, re = abs(c.imag), abs(c.real)
    if off > 1e-6 * re:
        flip = c.imag < 0
    elif off <= 1e-12 * re:
        flip = c.real < 0
    else:
        flip = scalar_cmp(-lam * ms, c) < 0
    return (-lam * ms, 1) if flip else (c, 0)


def _trivial_root(a: PauliLim, hx: int, hz: int, lam: complex, x: int, s: int) -> PauliLim:
    """(I (x) a) . B_root for the choice (x, s) of ``_trivial_choice``, where
    B_root = (X (x) a_hat)^x (Z^s (x) I) and a_hat = lam (hx, hz).  Without
    the branch swap the root is a's string and scalar with Z^s on top, and
    a_hat is not read."""
    m = a.n
    top = 1 << m
    if not x:
        return PauliLim(m + 1, a.x, a.z | (top if s else 0), a.scalar)
    r = mul(PauliLim(m + 1, a.x, a.z, a.scalar), PauliLim(m + 1, hx | top, hz, lam))
    # (X (x) c)(Z (x) I) = -i Y (x) c
    return PauliLim(m + 1, r.x, r.z | top, -1j * r.scalar) if s else r


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
    import numpy as np

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
