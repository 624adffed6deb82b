"""Pauli string algebra on packed check strings.

A labelled Pauli operator (a "LIM") is lambda * P_n (x) ... (x) P_1 with
P_k in {I, X, Y, Z} and lambda a nonzero complex scalar.  Strings are stored
as two bitmasks: bit k-1 of ``x``/``z`` holds the X/Z component of qubit k,
so qubit n is the most significant bit and the leftmost letter in text form.
The single-qubit factor encoded by bits (x, z) is i^(xz) * X^x * Z^z, which
makes (1, 1) exactly Y, every string Hermitian, and every string square to
+I, so products need only integer phase tracking.

The zero operator gets its own type; it annihilates everything it multiplies
and is never a member of a generator set.

Generator sets hold independent commuting strings with scalars +-1 and are
the working representation for stabilizer subgroups.  Every GF(2) step on
them runs through ``gf2_eliminate`` on the ``string_key`` integers.  It
records which inputs make up each row as a selection bitmask, and
``group_product`` turns a mask back into an element with its exact sign.
``rref`` reduces a whole set; ``rref_insert`` adds rows to a set that is
already reduced without reducing it again.  The diagram store takes the
double-coset minimum, the opposite element and the intersection of two
groups from one elimination per pair (``DiagramStore._pair``).
``string_kernel`` and ``find_opposite`` are the same kernel steps on their
own; the store no longer calls them, and they stay because the benchmark's
tracer (``bench/tracing.py``) counts them by name.
Clifford circuits for ``conjugate`` are flat tuples of ("h", q), ("s", q),
("cx", c, t) with 1-based qubits.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, Optional, Sequence, Union

EPS_EQ = 1e-12    # equality of complex scalars
EPS_ORD = 1e-9    # ordering comparisons on (magnitude, phase)

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


class PauliError(Exception):
    pass


class NotAStabilizerGroupError(PauliError):
    """Raised when a generator set is dependent, non-commuting, or yields -I."""


class PauliLim:
    """A nonzero scalar times a Pauli string on ``n`` qubits."""

    __slots__ = ("n", "x", "z", "scalar")

    def __init__(self, n: int, x: int, z: int, scalar: complex = 1.0):
        if scalar == 0:
            raise PauliError("PauliLim scalar must be nonzero; use ZeroLim")
        self.n = n
        self.x = x
        self.z = z
        self.scalar = complex(scalar)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PauliLim)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
            and self.scalar == other.scalar
        )

    __hash__ = None  # keys are built explicitly via quantized helpers

    def __repr__(self) -> str:
        return format_lim(self)

    def string_key(self) -> int:
        """The 2n-bit check string (x_n..x_1 z_n..z_1) as one integer."""
        return (self.x << self.n) | self.z

    def is_identity_string(self) -> bool:
        return self.x == 0 and self.z == 0


class ZeroLim:
    """The zero operator on ``n`` qubits (the label of an all-zero branch)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZeroLim) and self.n == other.n

    __hash__ = None

    def __repr__(self) -> str:
        return "0"


Lim = Union[PauliLim, ZeroLim]


def identity(n: int) -> PauliLim:
    return PauliLim(n, 0, 0, 1.0)


def zero(n: int) -> ZeroLim:
    return ZeroLim(n)


def single(n: int, qubit: int, letter: str, scalar: complex = 1.0) -> PauliLim:
    """The operator ``scalar * letter`` acting on 1-based ``qubit``."""
    if not 1 <= qubit <= n:
        raise PauliError(f"qubit {qubit} out of range 1..{n}")
    xb, zb = _LETTER_BITS[letter.upper()]
    b = qubit - 1
    return PauliLim(n, xb << b, zb << b, scalar)


def is_zero(a: Lim) -> bool:
    return isinstance(a, ZeroLim)


def mul(a: Lim, b: Lim) -> Lim:
    """Exact operator product a . b (phases tracked as integer powers of i)."""
    if isinstance(a, ZeroLim) or isinstance(b, ZeroLim):
        return ZeroLim(a.n)
    if a.n != b.n:
        raise PauliError(f"qubit count mismatch {a.n} != {b.n}")
    x3 = a.x ^ b.x
    z3 = a.z ^ b.z
    phi = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
        - (x3 & z3).bit_count()
    ) % 4
    return PauliLim(a.n, x3, z3, a.scalar * b.scalar * _PHASES[phi])


def inverse(a: PauliLim) -> PauliLim:
    """Inverse of a nonzero LIM; strings are involutions so only the scalar flips."""
    if isinstance(a, ZeroLim):
        raise PauliError("zero operator has no inverse")
    return PauliLim(a.n, a.x, a.z, 1.0 / a.scalar)


def scale(c: complex, a: Lim) -> Lim:
    """c * a; scaling by 0 yields the zero operator."""
    if isinstance(a, ZeroLim):
        return a
    if c == 0:
        return ZeroLim(a.n)
    return PauliLim(a.n, a.x, a.z, c * a.scalar)


def neg(a: Lim) -> Lim:
    return scale(-1.0, a)


def pauli_conjugate(a: PauliLim, g: PauliLim) -> PauliLim:
    """a . g . a^-1 for Pauli ``a``: g up to the symplectic sign; a's scalar cancels."""
    sign = -1.0 if ((a.x & g.z).bit_count() + (a.z & g.x).bit_count()) & 1 else 1.0
    return PauliLim(g.n, g.x, g.z, sign * g.scalar)


def tensor_top(letter: str, a: Lim, extra_scalar: complex = 1.0) -> Lim:
    """(letter (x) a) on n+1 qubits, optionally scaled; the new qubit is the top."""
    if isinstance(a, ZeroLim):
        return ZeroLim(a.n + 1)
    xb, zb = _LETTER_BITS[letter.upper()]
    out = PauliLim(a.n + 1, a.x | (xb << a.n), a.z | (zb << a.n), a.scalar)
    return scale(extra_scalar, out) if extra_scalar != 1.0 else out


def top_factor(a: PauliLim) -> tuple[int, int]:
    """(x, z) bits of the top-qubit factor of ``a``."""
    b = a.n - 1
    return (a.x >> b) & 1, (a.z >> b) & 1


def strip_top(a: PauliLim) -> PauliLim:
    """Drop the top-qubit factor, keeping the scalar on the remaining string."""
    mask = (1 << (a.n - 1)) - 1
    return PauliLim(a.n - 1, a.x & mask, a.z & mask, a.scalar)


# ---------------------------------------------------------------------------
# ordering and text form


def lex_cmp(a: PauliLim, b: PauliLim) -> int:
    """Total order: X block, then Z block (qubit n most significant), then
    scalar magnitude, then phase in [0, 2*pi); float ties within EPS_ORD are
    equal.  Returns -1, 0, or 1."""
    if a.n != b.n:
        raise PauliError("cannot order operators on different qubit counts")
    if a.x != b.x:
        return -1 if a.x < b.x else 1
    if a.z != b.z:
        return -1 if a.z < b.z else 1
    return scalar_cmp(a.scalar, b.scalar)


def scalar_cmp(a: complex, b: complex) -> int:
    """The scalar part of ``lex_cmp``: magnitude, then phase in [0, 2*pi);
    float ties within EPS_ORD are equal.  Returns -1, 0, or 1."""
    ra, rb = abs(a), abs(b)
    if abs(ra - rb) > EPS_ORD:
        return -1 if ra < rb else 1
    ta, tb = _phase_angle(a), _phase_angle(b)
    if abs(ta - tb) > EPS_ORD:
        return -1 if ta < tb else 1
    return 0


def _phase_angle(c: complex) -> float:
    t = cmath.phase(c)
    if t < 0:
        t += 2.0 * math.pi
    if t >= 2.0 * math.pi:
        t = 0.0
    return t


def _scalar_str(c: complex) -> str:
    if abs(c.imag) <= EPS_EQ:
        return "%g" % c.real
    if abs(c.real) <= EPS_EQ:
        return "%gi" % c.imag if c.imag != 1.0 else "i"
    return "(%g%+gi)" % (c.real, c.imag)


def format_lim(a: Lim) -> str:
    """Debug form ``[-]?[i]? <scalar>? * P_n..P_1``, e.g. ``-i*XZY``."""
    if isinstance(a, ZeroLim):
        return "0"
    letters = "".join(
        _BITS_LETTER[((a.x >> k) & 1, (a.z >> k) & 1)] for k in range(a.n - 1, -1, -1)
    )
    c = a.scalar
    if a.n == 0:
        return _scalar_str(c)
    if c == 1:
        return letters
    if c == -1:
        return "-" + letters
    if c == 1j:
        return "i*" + letters
    if c == -1j:
        return "-i*" + letters
    return _scalar_str(c) + "*" + letters


def from_text(text: str, n: Optional[int] = None) -> PauliLim:
    """Parse the debug form; letters are qubit n down to qubit 1."""
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


# ---------------------------------------------------------------------------
# generator sets


class GeneratorSet:
    """Independent commuting +-1 Pauli strings generating a stabilizer subgroup.

    Instances are treated as immutable.  ``content_key`` supports
    content-keyed memo tables (it sees generator order, which rref
    canonicalizes)."""

    __slots__ = ("n", "gens", "_ckey")

    def __init__(self, n: int, gens: Iterable[PauliLim] = ()):
        self.n = n
        snapped = []
        for g in gens:
            if g.n != n:
                raise PauliError("generator qubit count mismatch")
            snapped.append(_snap_sign(g))
        self.gens = tuple(snapped)
        self._ckey = None

    @classmethod
    def exact(cls, n: int, gens: tuple) -> "GeneratorSet":
        """A set of rows already on ``n`` qubits with scalars exactly +-1
        (built from another set's rows), taken as they are."""
        g = cls.__new__(cls)
        g.n = n
        g.gens = gens
        g._ckey = None
        return g

    def content_key(self) -> tuple:
        if self._ckey is None:
            self._ckey = (self.n,) + tuple(
                (g.x, g.z, 1 if g.scalar.real > 0 else -1) for g in self.gens
            )
        return self._ckey

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self) -> Iterator[PauliLim]:
        return iter(self.gens)

    def __repr__(self) -> str:
        return "<%s>" % ", ".join(format_lim(g) for g in self.gens)

def _snap_sign(g: PauliLim) -> PauliLim:
    """Force a generator scalar to exactly +-1; reject anything else."""
    s = g.scalar
    if s == 1.0 or s == -1.0:
        return g
    if abs(s - 1.0) <= 1e-9:
        return PauliLim(g.n, g.x, g.z, 1.0)
    if abs(s + 1.0) <= 1e-9:
        return PauliLim(g.n, g.x, g.z, -1.0)
    raise NotAStabilizerGroupError(f"generator scalar {s} is not +-1")


def gf2_eliminate(keys: Sequence[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Gauss-Jordan elimination over GF(2) on rows packed into integers.

    Input row i carries the selection bit 1 << i, and every XOR of rows
    XORs their selection masks too.  Returns ``(rows, kernel)``:

    * ``rows``: the reduced row echelon basis of the input span as
      ``(key, sel)`` pairs in decreasing-key order.  Each pivot is the
      leading bit of its key and is clear in every other row; ``sel``
      picks the inputs whose XOR is ``key``.
    * ``kernel``: one selection mask per input that depends on the
      inputs before it; the selected inputs XOR to 0.  Together they are
      a basis of all such combinations, so ``len(rows) + len(kernel) ==
      len(keys)``.

    The basis stays reduced after every insertion.  So clearing a new row
    touches only the pivots it has set, each XOR leaving the others alone,
    and its own pivot is its ``bit_length``.  Rows carrying that pivot are
    looked for only when some row has ever had the bit (``seen``), which
    an already reduced input never does."""
    basis: dict[int, list[int]] = {}   # pivot bit -> [key, sel]
    pivots = 0
    seen = 0
    kernel: list[int] = []
    for i, key in enumerate(keys):
        sel = 1 << i
        hit = key & pivots
        while hit:
            low = hit & -hit
            row = basis[low.bit_length() - 1]
            key ^= row[0]
            sel ^= row[1]
            hit ^= low
        if not key:
            kernel.append(sel)
            continue
        piv = key.bit_length() - 1
        if (seen >> piv) & 1:
            for row in basis.values():
                if (row[0] >> piv) & 1:
                    row[0] ^= key
                    row[1] ^= sel
        basis[piv] = [key, sel]
        pivots |= 1 << piv
        seen |= key
    return [tuple(basis[p]) for p in sorted(basis, reverse=True)], kernel


def group_product(gens: Sequence[PauliLim], mask: int, n: int) -> PauliLim:
    """Exact product of the generators selected by ``mask`` bits.

    Well defined without an ordering convention because stabilizer
    generators commute."""
    if not mask:
        return identity(n)
    low = mask & -mask
    res = gens[low.bit_length() - 1]
    mask ^= low
    while mask:
        low = mask & -mask
        res = mul(res, gens[low.bit_length() - 1])
        mask ^= low
    return res


def rref(g: GeneratorSet) -> GeneratorSet:
    """Gauss-Jordan reduce over check strings with exact phase tracking.

    Rows come out with strictly decreasing pivot positions and each pivot
    eliminated from every other row; each row's sign is the exact product
    of the generators that make it up.  Dependent input is dropped when it
    multiplies to +I and is an error when it yields anything else (-I)."""
    n = g.n
    rows, kernel = gf2_eliminate([r.string_key() for r in g.gens])
    for sel in kernel:
        if abs(group_product(g.gens, sel, n).scalar - 1.0) > EPS_EQ:
            raise NotAStabilizerGroupError("generators produce -I")
    return GeneratorSet(n, [group_product(g.gens, sel, n) for _, sel in rows])


def rref_insert(g: GeneratorSet, rows: Iterable[PauliLim]) -> GeneratorSet:
    """``rref`` of g's generators followed by ``rows``, for ``g`` already
    reduced, without re-reducing ``g``.

    Each new row is cleared by one pass over the pivots.  A row that
    survives has a fresh pivot: it is cleared from the few rows that carry
    that bit (their own pivots stay put) and the row is placed by key.  A
    row that reduces to +I is dropped and one that reduces to -I is an
    error, as in ``rref``.  Cost per new row is linear in ``len(g)``."""
    gens = list(g.gens)
    keys = [r.string_key() for r in gens]   # decreasing
    for p in rows:
        p = _snap_sign(p)
        key = p.string_key()
        for i, k in enumerate(keys):
            if (key >> (k.bit_length() - 1)) & 1:
                key ^= k
                p = mul(p, gens[i])
        if not key:
            if abs(p.scalar - 1.0) > EPS_EQ:
                raise NotAStabilizerGroupError("generators produce -I")
            continue
        p = _snap_sign(p)
        piv = key.bit_length() - 1
        for i, k in enumerate(keys):
            if (k >> piv) & 1:
                keys[i] = k ^ key
                gens[i] = _snap_sign(mul(gens[i], p))
        at = next((i for i, k in enumerate(keys) if k < key), len(keys))
        keys.insert(at, key)
        gens.insert(at, p)
    return GeneratorSet.exact(g.n, tuple(gens))


def string_kernel(g0: GeneratorSet, g1: GeneratorSet) -> list[tuple[int, int]]:
    """Basis of {(a, b) : prod g0^a and prod g1^b have the same string}.

    The kernel of the elimination on the stacked check strings, with each
    selection mask split at the g0/g1 boundary.  Phases are ignored here."""
    k0 = len(g0.gens)
    low = (1 << k0) - 1
    _, kernel = gf2_eliminate([g.string_key() for g in g0.gens + g1.gens])
    return [(sel & low, sel >> k0) for sel in kernel]


def find_opposite(g0: GeneratorSet, g1: GeneratorSet) -> Optional[PauliLim]:
    """Some h with h in <g0> and -h in <g1>, or None.

    Such an h shares its string with an element of <g1>, so every candidate
    lives in the string kernel of the stacked generator sets.  Sign
    quotients are multiplicative over the kernel (commuting +-1 generators
    square to +I exactly), so scanning one kernel basis decides existence:
    any basis pair whose exact products disagree in sign is a witness."""
    n = g0.n
    for m0, m1 in string_kernel(g0, g1):
        h = group_product(g0.gens, m0, n)
        other = group_product(g1.gens, m1, n)
        if h.scalar.real * other.scalar.real < 0:
            return h
    return None


# ---------------------------------------------------------------------------
# Clifford conjugation


CliffordGate = tuple


def _conj_gate(a: PauliLim, gate: CliffordGate) -> PauliLim:
    x, z, s = a.x, a.z, a.scalar
    kind = gate[0]
    if kind == "h":
        b = gate[1] - 1
        xb = (x >> b) & 1
        zb = (z >> b) & 1
        if xb & zb:
            s = -s
        if xb != zb:
            x ^= 1 << b
            z ^= 1 << b
    elif kind == "s":
        b = gate[1] - 1
        xb = (x >> b) & 1
        if xb:
            if (z >> b) & 1:
                s = -s
            z ^= 1 << b
    elif kind == "cx":
        bc = gate[1] - 1
        bt = gate[2] - 1
        xc = (x >> bc) & 1
        zt = (z >> bt) & 1
        if xc and zt and (((x >> bt) ^ (z >> bc) ^ 1) & 1):
            s = -s
        if xc:
            x ^= 1 << bt
        if zt:
            z ^= 1 << bc
    else:
        raise PauliError(f"unknown Clifford gate {gate!r}")
    return PauliLim(a.n, x, z, s)


def conjugate(a: PauliLim, circuit: Iterable[CliffordGate]) -> PauliLim:
    """U a U^dagger where U applies the circuit's gates in list order."""
    for gate in circuit:
        a = _conj_gate(a, gate)
    return a
