"""Constructors for structured states: graph/cluster, coset, stabilizer
towers, the W-state circuit and Dicke vectors.

Each constructor returns an Engine whose root is the finished state, so the
caller gets the node store, statistics and measurement machinery along with
the edge.  Graph and coset states are built directly as towers (one node per
level) with the defining labels on the high edges; "qmdd" variants run the
equivalent gate circuit instead, since identity-group labels cannot carry
the Pauli strings the direct towers use.  Constructors that run gates build
a ``Circuit`` and run it through ``circuit.build_engine``, which sweeps the
store after every op.

Vertex v of a graph maps to qubit level n - v, so vertex 0 is the top qubit
and bit strings read left to right match the vertex order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .circuit import Circuit, build_engine
from .diagram import Edge, scale_edge
from .engine import Engine
from .pauli import PauliLim, gf2_eliminate, identity, mul, scale, zero

if TYPE_CHECKING:
    import numpy as np


class StateError(Exception):
    pass


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise StateError("graph needs at least one vertex")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise StateError(f"self-loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise StateError(f"edge ({a},{b}) out of range")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))


@dataclass(frozen=True)
class Coset:
    """Affine subspace of GF(2)^n: span(basis) + offset, strings read with
    the top qubit leftmost."""

    n: int
    basis: tuple = ()
    offset: str = ""

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        off = self.offset or "0" * self.n
        for s in (*self.basis, off):
            if len(s) != self.n or set(s) - {"0", "1"}:
                raise StateError(f"bad {self.n}-bit string {s!r}")
        object.__setattr__(self, "offset", off)


def graph_state(g: Graph, mode: str = "limdd") -> Engine:
    """Engine holding (1/sqrt(2^n)) sum_x (-1)^{#edges inside x} |x>."""
    if mode == "qmdd":
        hs = [("h", (v,)) for v in reversed(range(g.n))]
        return build_engine(Circuit(g.n, (*hs, *(("cz", e) for e in sorted(g.edges)))), mode)
    eng = Engine(g.n, mode=mode)
    store = eng.store
    er = Edge(identity(0), store.leaf)
    for level in range(1, g.n + 1):
        v = g.n - level   # vertex landing on this level
        zmask = 0
        for a, b in g.edges:
            other = b if a == v else a if b == v else None
            if other is not None and other > v:
                zmask |= 1 << (g.n - other - 1)
        lim = PauliLim(level - 1, 0, zmask, 1.0)
        er = store.make_edge(er, Edge(mul(lim, er.label), er.target))
    eng.set_root(scale_edge(2 ** (-g.n / 2), er))
    return eng


def cluster_state(rows: int, cols: int, mode: str = "limdd") -> Engine:
    """Graph state of the rows x cols grid, vertices numbered row-major."""
    if rows < 1 or cols < 1:
        raise StateError("grid dimensions must be positive")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.add((v, v + 1))
            if r + 1 < rows:
                edges.add((v, v + cols))
    return graph_state(Graph(rows * cols, frozenset(edges)), mode)


def coset_state(c: Coset) -> Engine:
    """Uniform superposition over span(basis) + offset as an X-labelled tower."""
    eng = Engine(c.n)
    store = eng.store
    rows, kernel = gf2_eliminate([int(s, 2) for s in c.basis])
    if kernel:
        s = c.basis[kernel[0].bit_length() - 1]
        raise StateError(f"basis string {s!r} is dependent on the others")
    pivots = {row.bit_length() - 1: row for row, _ in rows}
    er = Edge(identity(0), store.leaf)
    for level in range(1, c.n + 1):
        row = pivots.get(level - 1)
        if row is None:
            hi = Edge(zero(level - 1), er.target)
        else:
            low_bits = row & ((1 << (level - 1)) - 1)
            hi = Edge(mul(PauliLim(level - 1, low_bits, 0, 1.0), er.label), er.target)
        er = store.make_edge(er, hi)
    lift = mul(PauliLim(c.n, int(c.offset, 2), 0, 1.0), er.label)
    eng.set_root(Edge(scale(2 ** (-len(pivots) / 2), lift), er.target))
    return eng


def stabilizer_state(n: int, gates, mode: str = "limdd") -> Engine:
    """Run an h/s/cx gate list on |0...0>; gates are ``(name, *qubits)``
    with the engine's 1-based qubits."""
    ops = []
    for name, *qubits in gates:
        if name not in ("h", "s", "cx"):
            raise StateError(f"non-Clifford gate {name!r}")
        try:
            ops.append((name, tuple(n - q for q in qubits)))
        except TypeError:
            raise StateError(f"bad qubits in gate {name!r}") from None
    return build_engine(Circuit(n, tuple(ops)), mode)


def w_state_as_circuit(n: int):
    """Circuit (qubit 0 on top) preparing W_n from |0...0>, n a power of two.

    The top log n qubits (register A) go into uniform superposition; each
    non-one-hot pattern of A flips one low qubit (register B) through a
    multi-controlled X; finally each B qubit uncomputes the 1-bits of its
    pattern."""
    m = n.bit_length() - 1
    if n < 2 or (1 << m) != n:
        raise StateError("W circuit is defined for powers of two, n >= 2")
    patterns = [p for p in range(1 << m) if p.bit_count() != 1]
    bits = [[(p >> (m - 1 - i)) & 1 for i in range(m)] for p in patterns]
    ops: list = [("h", (a,)) for a in range(m)]
    for t, pb in enumerate(bits, m):
        ops.append(("mcx", (t, *enumerate(pb))))
    for t, pb in enumerate(bits, m):
        ops.extend(("cx", (t, a)) for a in range(m) if pb[a])
    return Circuit(n, tuple(ops))


def dicke_dense(n: int, w: int) -> np.ndarray:
    """Normalized equal superposition of all weight-w basis states."""
    if not 1 <= n <= 14:
        raise StateError("dense Dicke vectors limited to 1..14 qubits")
    if not 0 <= w <= n:
        raise StateError(f"weight {w} out of range 0..{n}")
    import numpy as np

    vec = np.zeros(1 << n, dtype=complex)
    amp = 1.0 / math.sqrt(math.comb(n, w))
    for idx in range(1 << n):
        if idx.bit_count() == w:
            vec[idx] = amp
    return vec
