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
the working representation for stabilizer subgroups.  A set is packed: a
tuple of (x, z) string pairs with no qubit count and one sign bitmask
(``GeneratorSet``), so I (x) g shares g's tuple, conjugating by a Pauli
flips sign bits (``conjugate_group``), and a product of rows carries one
sign bit (``row_product``).  Every GF(2) step that a reduced set cannot
skip runs through ``gf2_eliminate`` on check-string integers (x above z).
It records which inputs make up each row as a selection bitmask, which
``row_product`` turns back into an element with its exact sign.  ``rref``
reduces a whole set; ``rref_insert`` adds rows to a set that is already
reduced without reducing it again.  The diagram store takes the double-coset
minimum, the opposite element and the intersection of two groups from one
pair record (``DiagramStore._pair``).  ``string_kernel`` and
``find_opposite`` are the same kernel steps on their own; the store does not
call them, and they stay because the benchmark's tracer
(``bench/tracing.py``) counts them by name.
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


def single(n: int, qubit: int, letter: str) -> PauliLim:
    """The operator ``letter`` acting on 1-based ``qubit``."""
    if not 1 <= qubit <= n:
        raise PauliError(f"qubit {qubit} out of range 1..{n}")
    xb, zb = _LETTER_BITS[letter.upper()]
    b = qubit - 1
    return PauliLim(n, xb << b, zb << b)


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


def tensor_top(letter: str, a: Lim) -> Lim:
    """(letter (x) a) on n+1 qubits; the new qubit is the top."""
    if isinstance(a, ZeroLim):
        return ZeroLim(a.n + 1)
    xb, zb = _LETTER_BITS[letter.upper()]
    return PauliLim(a.n + 1, a.x | (xb << a.n), a.z | (zb << a.n), a.scalar)


# ---------------------------------------------------------------------------
# ordering and text form


def scalar_cmp(a: complex, b: complex) -> int:
    """Order on scalars: magnitude, then phase in [0, 2*pi); float ties
    within EPS_ORD are equal, and ties wrap around at phase 0: a phase
    within EPS_ORD below 2*pi counts as 0, so a real scalar with a -1e-16
    imaginary part ranks with its exactly real twin, not last.  Returns -1,
    0, or 1."""
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
    if t >= 2.0 * math.pi - EPS_ORD:
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


# ---------------------------------------------------------------------------
# generator sets


class GeneratorSet:
    """Independent commuting +-1 Pauli strings generating a stabilizer subgroup.

    Packed: ``rows`` is a tuple of (x, z) string pairs with no qubit count,
    and bit i of ``signs`` is set when row i carries -1.  So I (x) g on one
    more qubit is ``packed(n + 1, g.rows, g.signs)``, sharing g's tuple, and
    conjugating by a Pauli flips bits of ``signs``.  ``reduced`` says the
    rows are in reduced row echelon form (``rref``): keys strictly
    decreasing, each pivot clear in every other row.  Sets made by ``rref``,
    ``rref_insert`` and the diagram store are; a set built from
    ``PauliLim``s is checked.  ``gens`` is a read-only view of the rows as
    ``PauliLim``s.  Instances are treated as immutable."""

    __slots__ = ("n", "rows", "signs", "reduced")

    def __init__(self, n: int, gens: Iterable[PauliLim] = ()):
        rows = []
        keys = []
        signs = 0
        for i, g in enumerate(gens):
            if g.n != n:
                raise PauliError("generator qubit count mismatch")
            rows.append((g.x, g.z))
            keys.append(g.string_key())
            signs |= _sign_bit(g.scalar) << i
        self.n = n
        self.rows = tuple(rows)
        self.signs = signs
        self.reduced = _is_reduced(keys)

    @classmethod
    def packed(cls, n: int, rows: tuple, signs: int, reduced: bool = True) -> "GeneratorSet":
        """A set of packed rows on ``n`` qubits, taken as they are."""
        g = cls.__new__(cls)
        g.n = n
        g.rows = rows
        g.signs = signs
        g.reduced = reduced
        return g

    @property
    def gens(self) -> tuple:
        n, signs = self.n, self.signs
        return tuple(
            PauliLim(n, x, z, -1.0 if (signs >> i) & 1 else 1.0)
            for i, (x, z) in enumerate(self.rows)
        )

    def content_key(self) -> tuple:
        return (self.n, self.rows, self.signs)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[PauliLim]:
        return iter(self.gens)

    def __repr__(self) -> str:
        return "<%s>" % ", ".join(format_lim(g) for g in self.gens)


def _sign_bit(s: complex) -> int:
    """0 for a generator scalar within 1e-9 of +1, 1 for one within 1e-9 of
    -1; anything else is rejected."""
    if abs(s - 1.0) <= 1e-9:
        return 0
    if abs(s + 1.0) <= 1e-9:
        return 1
    raise NotAStabilizerGroupError(f"generator scalar {s} is not +-1")


def _is_reduced(keys: list) -> bool:
    """Whether check strings are in reduced row echelon form."""
    if not all(keys):
        return False
    pivots = [k.bit_length() - 1 for k in keys]
    if any(a <= b for a, b in zip(pivots, pivots[1:])):
        return False
    mask = sum(1 << p for p in pivots)
    return all(k & mask == 1 << p for k, p in zip(keys, pivots))


def phase_exp(x1: int, z1: int, x2: int, z2: int) -> int:
    """e with (x1, z1) (x2, z2) = i^e (x1 ^ x2, z1 ^ z2) for the strings of
    ``mul`` (which computes it inline), so 2 * sign bit for two commuting
    strings."""
    return (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    ) % 4


def mul_sign(x1: int, z1: int, x2: int, z2: int) -> int:
    """The sign bit of the product of two commuting strings; strings that
    anticommute have no such sign and raise."""
    e = phase_exp(x1, z1, x2, z2)
    if e & 1:
        raise NotAStabilizerGroupError("generators do not commute")
    return e >> 1


def row_product(rows: Sequence[tuple], signs: int, mask: int) -> tuple[int, int, int]:
    """(x, z, sign bit) of the product of the rows selected by ``mask`` bits.

    Well defined without an ordering convention because stabilizer
    generators commute.  The phase exponent is ``phase_exp`` summed over
    the steps of the product, where the accumulated x & z terms telescope:
    each row adds its own x & z count and twice its x against the z
    before it, and the result's x & z count comes off once at the end."""
    x = z = 0
    e = 2 * (signs & mask).bit_count()
    while mask:
        low = mask & -mask
        rx, rz = rows[low.bit_length() - 1]
        e += (rx & rz).bit_count() + 2 * (z & rx).bit_count()
        x ^= rx
        z ^= rz
        mask ^= low
    e -= (x & z).bit_count()
    if e & 1:
        raise NotAStabilizerGroupError("generators do not commute")
    return x, z, (e >> 1) & 1


def conjugate_group(a: PauliLim, g: GeneratorSet) -> GeneratorSet:
    """a <g> a^-1 for Pauli ``a``: g's rows, with the sign of every row that
    anticommutes with a's string flipped; a's scalar cancels."""
    ax, az = a.x, a.z
    flip = 0
    for i, (x, z) in enumerate(g.rows):
        if ((ax & z) ^ (az & x)).bit_count() & 1:
            flip |= 1 << i
    if not flip:
        return g
    return GeneratorSet.packed(g.n, g.rows, g.signs ^ flip, g.reduced)


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


def rref(g: GeneratorSet) -> GeneratorSet:
    """Gauss-Jordan reduce over check strings with exact phase tracking.

    Rows come out with strictly decreasing pivot positions and each pivot
    eliminated from every other row; each row's sign is the exact product
    of the generators that make it up.  Dependent input is dropped when it
    multiplies to +I and is an error when it yields anything else (-I)."""
    n, gens, signs = g.n, g.rows, g.signs
    rows, kernel = gf2_eliminate([(x << n) | z for x, z in gens])
    for sel in kernel:
        if row_product(gens, signs, sel)[2]:
            raise NotAStabilizerGroupError("generators produce -I")
    out = []
    out_signs = 0
    for i, (_, sel) in enumerate(rows):
        x, z, s = row_product(gens, signs, sel)
        out.append((x, z))
        out_signs |= s << i
    return GeneratorSet.packed(n, tuple(out), out_signs)


def rref_insert(g: GeneratorSet, rows: Iterable[PauliLim]) -> GeneratorSet:
    """``rref`` of g's generators followed by ``rows``, for ``g`` already
    reduced, without re-reducing ``g``.

    Each new row is cleared by one pass over the pivots.  A row that
    survives has a fresh pivot: it is cleared from the few rows that carry
    that bit (their own pivots stay put) and the row is placed by key.  A
    row that reduces to +I is dropped and one that reduces to -I is an
    error, as in ``rref``.  Cost per new row is linear in ``len(g)``; the
    rows it leaves alone are g's own tuples.

    A row's key is its x block above its z block, so its pivot is the
    leading bit of x, or of z when x is 0, and keys order as (x, z) pairs.
    Whether a string p holds the pivot of row r is ``p ^ r < p`` on that
    block."""
    out = list(g.rows)
    signs = g.signs
    for p in rows:
        px, pz, ps = p.x, p.z, _sign_bit(p.scalar)
        for i, (x, z) in enumerate(out):
            if (px ^ x < px) if x else (pz ^ z < pz):
                ps ^= ((signs >> i) & 1) ^ mul_sign(px, pz, x, z)
                px ^= x
                pz ^= z
        if not (px or pz):
            if ps:
                raise NotAStabilizerGroupError("generators produce -I")
            continue
        if px:
            bx, bz = 1 << (px.bit_length() - 1), 0
        else:
            bx, bz = 0, 1 << (pz.bit_length() - 1)
        for i, (x, z) in enumerate(out):
            if x & bx or z & bz:
                signs ^= (ps ^ mul_sign(x, z, px, pz)) << i
                out[i] = (x ^ px, z ^ pz)
        new = (px, pz)
        at = next((i for i, r in enumerate(out) if r < new), len(out))
        out.insert(at, new)
        below = (1 << at) - 1
        signs = (signs & below) | (ps << at) | ((signs & ~below) << 1)
    return GeneratorSet.packed(g.n, tuple(out), signs)


def string_kernel(g0: GeneratorSet, g1: GeneratorSet) -> list[tuple[int, int]]:
    """Basis of {(a, b) : prod g0^a and prod g1^b have the same string}.

    The kernel of the elimination on the stacked check strings, with each
    selection mask split at the g0/g1 boundary.  Phases are ignored here."""
    n = g0.n
    k0 = len(g0.rows)
    low = (1 << k0) - 1
    _, kernel = gf2_eliminate([(x << n) | z for x, z in g0.rows + g1.rows])
    return [(sel & low, sel >> k0) for sel in kernel]


def find_opposite(g0: GeneratorSet, g1: GeneratorSet) -> Optional[PauliLim]:
    """Some h with h in <g0> and -h in <g1>, or None.

    Such an h shares its string with an element of <g1>, so every candidate
    lives in the string kernel of the stacked generator sets.  Sign
    quotients are multiplicative over the kernel (commuting +-1 generators
    square to +I exactly), so scanning one kernel basis decides existence:
    any basis pair whose exact products disagree in sign is a witness."""
    for m0, m1 in string_kernel(g0, g1):
        x, z, s = row_product(g0.rows, g0.signs, m0)
        if s != row_product(g1.rows, g1.signs, m1)[2]:
            return PauliLim(g0.n, x, z, -1.0 if s else 1.0)
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
