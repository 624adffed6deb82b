"""Brute-force reference implementations used by the tests.

Everything here works on dense numpy arrays or explicit enumeration so it
shares no logic with the package under test beyond the data types, except
``edge_from_dense``, which builds a diagram through ``make_edge``,
``sample_by_follow``, which draws by ``DiagramStore.follow``, and
``audit``, which re-derives groups and labels with the store's own
``_node_group`` and ``get_labels``.
Conventions match the package: qubit k is bit k-1 of a basis index, so the
top qubit n is the most significant bit and the leftmost character of a
printed bit string.
"""

from __future__ import annotations

import functools

import numpy as np

from limdd.pauli import GeneratorSet, PauliError, PauliLim, ZeroLim, mul, scalar_cmp

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)
T2 = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def is_identity_string(a: PauliLim) -> bool:
    """Whether the Pauli string of ``a`` is I on every qubit."""
    return a.x == 0 and a.z == 0


def lim_to_matrix(a) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a LIM."""
    dim = 1 << a.n
    m = np.zeros((dim, dim), dtype=complex)
    if isinstance(a, ZeroLim):
        return m
    phase = 1j ** ((a.x & a.z).bit_count() % 4)
    for b in range(dim):
        sign = -1.0 if (a.z & b).bit_count() & 1 else 1.0
        m[b ^ a.x, b] = a.scalar * phase * sign
    return m


def apply_lim_dense(a, vec: np.ndarray) -> np.ndarray:
    if isinstance(a, ZeroLim):
        return np.zeros_like(vec)
    dim = vec.shape[0]
    out = np.empty_like(vec)
    phase = a.scalar * (1j ** ((a.x & a.z).bit_count() % 4))
    for b in range(dim):
        src = b ^ a.x
        sign = -1.0 if (a.z & src).bit_count() & 1 else 1.0
        out[b] = phase * sign * vec[src]
    return out


def op_on_qubit(n: int, qubit: int, m2: np.ndarray) -> np.ndarray:
    """m2 acting on 1-based ``qubit`` padded with identities (qubit n leftmost)."""
    m = np.eye(1, dtype=complex)
    for k in range(n, 0, -1):
        m = np.kron(m, m2 if k == qubit else I2)
    return m


def cx_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    cb, tb = control - 1, target - 1
    for i in range(dim):
        j = i ^ (1 << tb) if (i >> cb) & 1 else i
        m[j, i] = 1.0
    return m


def cz_matrix(n: int, a: int, b: int) -> np.ndarray:
    dim = 1 << n
    d = np.ones(dim, dtype=complex)
    for i in range(dim):
        if (i >> (a - 1)) & 1 and (i >> (b - 1)) & 1:
            d[i] = -1.0
    return np.diag(d)


def clifford_circuit_matrix(n: int, circuit) -> np.ndarray:
    """Dense unitary for a tuple of ("h", q) / ("s", q) / ("cx", c, t) gates,
    first listed gate applied first."""
    u = np.eye(1 << n, dtype=complex)
    for gate in circuit:
        if gate[0] == "h":
            g = op_on_qubit(n, gate[1], H2)
        elif gate[0] == "s":
            g = op_on_qubit(n, gate[1], S2)
        elif gate[0] == "cx":
            g = cx_matrix(n, gate[1], gate[2])
        else:
            raise ValueError(f"unknown gate {gate!r}")
        u = g @ u
    return u


# ---------------------------------------------------------------------------
# text form and order

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def from_text(text: str, n: int | None = None) -> PauliLim:
    """Parse the debug form of ``format_lim``, e.g. ``-i*XZY`` or
    ``0.5*XX``; letters are qubit n down to qubit 1."""
    text = text.strip()
    scalar: complex = 1.0
    if "*" in text:
        head, text = text.split("*", 1)
        head = head.strip()
        if head == "-":
            scalar = -1.0
        elif head == "i":
            scalar = 1j
        elif head == "-i":
            scalar = -1j
        else:
            scalar = complex(head.replace("i", "j"))
    elif text.startswith("-i"):
        scalar, text = -1j, text[2:]
    elif text.startswith("i"):
        scalar, text = 1j, text[1:]
    elif text.startswith("-"):
        scalar, text = -1.0, text[1:]
    letters = text.strip().upper()
    if n is not None and len(letters) != n:
        raise PauliError(f"expected {n} letters, got {len(letters)}")
    x = z = 0
    for ch in letters:
        if ch not in _LETTER_BITS:
            raise PauliError(f"bad Pauli letter {ch!r}")
        xb, zb = _LETTER_BITS[ch]
        x = (x << 1) | xb
        z = (z << 1) | zb
    return PauliLim(len(letters), x, z, scalar)


def lex_cmp(a: PauliLim, b: PauliLim) -> int:
    """Total order: X block, then Z block (qubit n most significant), then
    the scalar by ``scalar_cmp``.  Returns -1, 0, or 1."""
    if a.n != b.n:
        raise PauliError("cannot order operators on different qubit counts")
    if a.x != b.x:
        return -1 if a.x < b.x else 1
    if a.z != b.z:
        return -1 if a.z < b.z else 1
    return scalar_cmp(a.scalar, b.scalar)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_group(gens) -> list[PauliLim]:
    """All elements of the group generated by +-1 Pauli strings, exactly."""
    seen = {}
    n = gens.n if isinstance(gens, GeneratorSet) else (gens[0].n if gens else 0)
    frontier = [PauliLim(n, 0, 0, 1.0)]
    seen[(0, 0, 1)] = frontier[0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = mul(cur, g)
            sign = 1 if nxt.scalar.real > 0 else -1
            if abs(nxt.scalar.imag) > 1e-9:
                raise AssertionError("non +-1 scalar while enumerating")
            key = (nxt.x, nxt.z, sign)
            if key not in seen:
                seen[key] = nxt
                frontier.append(nxt)
    return list(seen.values())


def group_keys(gens) -> set:
    return {(g.x, g.z, 1 if g.scalar.real > 0 else -1) for g in enumerate_group(gens)}


def echelon_ok(g: GeneratorSet) -> bool:
    """Reduced row echelon form: pivots strictly decreasing, each pivot
    clear in every other row."""
    pivots = [r.string_key().bit_length() - 1 for r in g.gens]
    if pivots != sorted(pivots, reverse=True) or len(set(pivots)) != len(pivots):
        return False
    return all(
        not (r.string_key() >> p) & 1
        for i, r in enumerate(g.gens)
        for j, p in enumerate(pivots)
        if i != j
    )


def all_signed_paulis(n: int):
    for x in range(1 << n):
        for z in range(1 << n):
            for s in (1.0, -1.0):
                yield PauliLim(n, x, z, s)


def brute_stabilizer_elements(vec: np.ndarray) -> list[PauliLim]:
    """All signed Pauli strings fixing ``vec`` exactly (within 1e-9)."""
    n = int(vec.shape[0]).bit_length() - 1
    out = []
    for p in all_signed_paulis(n):
        if np.allclose(apply_lim_dense(p, vec), vec, atol=1e-9):
            out.append(p)
    return out


@functools.lru_cache(maxsize=None)
def _pauli_stack(m: int) -> np.ndarray:
    """The 4^m unsigned Pauli strings on m qubits as one (4^m, 2^m, 2^m) array."""
    return np.array(
        [lim_to_matrix(PauliLim(m, x, z)) for x in range(1 << m) for z in range(1 << m)]
    )


def _fingerprints(vecs: np.ndarray) -> list[bytes]:
    """One key per row, equal for rows equal up to a nonzero scalar: each row
    is divided by its first entry above 1e-9 and rounded to 1e-8."""
    first = np.argmax(np.abs(vecs) > 1e-9, axis=1)
    rows = vecs / vecs[np.arange(len(vecs)), first][:, None]
    parts = np.rint(np.stack([rows.real, rows.imag], axis=-1) * 1e8).astype(np.int64)
    return [r.tobytes() for r in parts]


def pauli_duplicate_nodes(store, max_level: int) -> list[tuple[int, int]]:
    """Pairs (nid, nid) of nodes up to ``max_level`` whose states are equal
    up to a Pauli string and a nonzero scalar: every P|v> of every node
    (all 4^m strings) is fingerprinted, and nodes sharing a fingerprint are
    reported.  Canonical stores have none."""
    from limdd.diagram import Edge

    owner: dict = {}
    pairs = set()
    for v in store.nodes[1:]:
        m = v.index
        if m > max_level:
            continue
        vec = store.to_dense(Edge(PauliLim(m, 0, 0, 1.0), v))
        for key in set(_fingerprints(_pauli_stack(m) @ vec)):
            other = owner.setdefault((m, key), v.nid)
            if other != v.nid:
                pairs.add((other, v.nid))
    return sorted(pairs)


def symplectic_commutes(a: PauliLim, b: PauliLim) -> bool:
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        r = rows.pop()
        if r == 0:
            continue
        piv = 1 << (r.bit_length() - 1)
        rank += 1
        rows = [q ^ r if q & piv else q for q in rows]
    return rank


def random_stabilizer_genset(n: int, rng, k: int | None = None) -> GeneratorSet:
    """Rejection-sample independent commuting +-1 strings (oracle-side checks)."""
    if k is None:
        k = int(rng.integers(0, n + 1))
    gens: list[PauliLim] = []
    keys: list[int] = []
    guard = 0
    while len(gens) < k:
        guard += 1
        if guard > 2000:
            break
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if x == 0 and z == 0:
            continue
        key = (x << n) | z
        cand = PauliLim(n, x, z, -1.0 if rng.integers(0, 2) else 1.0)
        if any(not symplectic_commutes(cand, g) for g in gens):
            continue
        if gf2_rank(keys + [key]) != len(keys) + 1:
            continue
        gens.append(cand)
        keys.append(key)
    return GeneratorSet(n, gens)


def random_clifford_circuit(n: int, rng, depth: int) -> list:
    """Random h/s/cx gate list (1-based qubits, first gate applied first)."""
    out = []
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 2 and n >= 2:
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            out.append(("cx", int(c), int(t)))
        else:
            out.append(("h" if kind == 0 else "s", int(rng.integers(1, n + 1))))
    return out


def cluster_circuit(rows: int, cols: int):
    """The rows x cols cluster-state circuit (H on every qubit, then CZ on
    every grid edge), user qubit r * cols + c at row r, column c."""
    from limdd.circuit import Circuit

    n = rows * cols
    ops = [("h", (q,)) for q in range(n)]
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                ops.append(("cz", (q, q + 1)))
            if r + 1 < rows:
                ops.append(("cz", (q, q + cols)))
    return Circuit(n, tuple(ops))


def edge_from_dense(store, vec: np.ndarray):
    """Build the reduced diagram for a dense vector through make_edge only.

    Exact zeros become Zero branches; the overall vector must be nonzero."""
    from limdd.diagram import Edge
    from limdd.pauli import zero

    vec = np.asarray(vec, dtype=complex)
    n = int(vec.shape[0]).bit_length() - 1
    if n == 0:
        if vec[0] == 0:
            raise ValueError("zero vector has no diagram")
        return Edge(PauliLim(0, 0, 0, complex(vec[0])), store.leaf)
    half = 1 << (n - 1)
    lo, hi = vec[:half], vec[half:]
    lo_zero = not np.any(lo)
    hi_zero = not np.any(hi)
    if lo_zero and hi_zero:
        raise ValueError("zero vector has no diagram")
    if lo_zero:
        e1 = edge_from_dense(store, hi)
        return store.make_edge(Edge(zero(n - 1), e1.target), e1)
    if hi_zero:
        e0 = edge_from_dense(store, lo)
        return store.make_edge(e0, Edge(zero(n - 1), e0.target))
    return store.make_edge(edge_from_dense(store, lo), edge_from_dense(store, hi))


def sample_by_follow(eng, rng, e) -> str:
    """One basis-string draw from |e> by the label algebra: at each level,
    branch 0 with the node's probability (p1 swapped to 1 - p1 under an X
    or Y on that qubit), drawn with one ``rng.random()``, then
    ``store.follow`` to the edge of the drawn outcome.  Unlike the rest of
    this module it walks the package's own diagram and weights; it is the
    reference ``Engine.sample`` must match draw for draw on one rng
    stream."""
    eng._weights(e.target)
    bits = []
    while e.target.index:
        v = e.target
        p1 = v.weight[1]
        p0 = p1 if (e.label.x >> (v.index - 1)) & 1 else 1.0 - p1
        b = 0 if rng.random() < p0 else 1
        bits.append("01"[b])
        e = eng.store.follow(e, b)
    return "".join(bits)


def audit(store) -> None:
    """Re-walk the store checking every reduction invariant and every
    node's group, re-derived from its children's; raises DiagramError on a
    violation."""
    from limdd.diagram import DiagramError, _scalar_close
    from limdd.pauli import format_lim, is_zero

    for v in store.nodes[1:]:
        low, high = v.low, v.high
        if low.target.index != v.index - 1 or high.target.index != v.index - 1:
            raise DiagramError(f"{v!r}: child level mismatch")
        g = store._node_group(v.index, low.target, high.label, high.target)
        if g.content_key() != v.stab.content_key():
            raise DiagramError(f"{v!r}: stored group is not the one its children give")
        if is_zero(low.label):
            if store.group != "identity":
                raise DiagramError(f"{v!r}: zero low label")
            if high.target is not low.target or not (
                is_identity_string(high.label) and high.label.scalar == 1.0
            ):
                raise DiagramError(f"{v!r}: malformed zero-low node")
            continue
        if not (is_identity_string(low.label) and low.label.scalar == 1.0):
            raise DiagramError(f"{v!r}: low label not identity")
        if is_zero(high.label):
            if high.target is not low.target:
                raise DiagramError(f"{v!r}: zero high edge with distinct target")
            continue
        if store.group == "pauli" and low.target.nid > high.target.nid:
            raise DiagramError(f"{v!r}: low precedence violated")
        bh, _ = store.get_labels(high.label, low.target, high.target)
        if (bh.x, bh.z) != (high.label.x, high.label.z) or not _scalar_close(
            bh.scalar, high.label.scalar
        ):
            raise DiagramError(
                f"{v!r}: high label {format_lim(high.label)} is not the "
                f"canonical {format_lim(bh)}"
            )


def audited_gate(eng, name: str, *qubits: int) -> None:
    """One gate as ``circuit.build_engine`` runs it (``run_gate``, then
    ``collect``), then an ``audit`` of the store."""
    eng.run_gate(name, *qubits)
    eng.collect()
    audit(eng.store)


def build_audited(c, mode: str):
    """``circuit.build_engine`` of a circuit of named gates, with the store
    audited after every gate."""
    from limdd.engine import Engine

    eng = Engine(c.n, mode=mode)
    for name, qs in c.ops:
        audited_gate(eng, name, *(c.n - q for q in qs))
    return eng
