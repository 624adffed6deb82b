"""Output checks for benchmark cases, run outside every timed phase.

Each check raises ``CheckFailed`` with a reason.  The stabilizer checks use
a small Aaronson-Gottesman tableau (CHP) written here, independent of the
package's own Pauli code.
"""

from __future__ import annotations

import math

import numpy as np

DENSE_TOL = 1e-8   # the `limdd-sim run --compare` tolerance
AMP_TOL = 1e-8


class CheckFailed(Exception):
    pass


class Tableau:
    """CHP stabilizer tableau over user qubits (bit q is qubit q).

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers, each a Pauli
    string (x, z bitmasks) with a sign bit r."""

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.r = [0] * (2 * n)

    def apply(self, name: str, qs: tuple) -> None:
        if name == "h":
            self._h(qs[0])
        elif name == "s":
            self._s(qs[0])
        elif name == "sdg":
            self._s(qs[0])
            self._pauli(qs[0], 0, 1)
        elif name == "x":
            self._pauli(qs[0], 1, 0)
        elif name == "y":
            self._pauli(qs[0], 1, 1)
        elif name == "z":
            self._pauli(qs[0], 0, 1)
        elif name == "cx":
            self._cx(*qs)
        elif name == "cz":
            self._h(qs[1])
            self._cx(*qs)
            self._h(qs[1])
        else:
            raise CheckFailed(f"tableau has no gate {name!r}")

    def _h(self, a: int) -> None:
        m = 1 << a
        for i in range(2 * self.n):
            xa, za = self.x[i] & m, self.z[i] & m
            if xa and za:
                self.r[i] ^= 1
            if bool(xa) != bool(za):
                self.x[i] ^= m
                self.z[i] ^= m

    def _s(self, a: int) -> None:
        m = 1 << a
        for i in range(2 * self.n):
            if self.x[i] & m:
                if self.z[i] & m:
                    self.r[i] ^= 1
                self.z[i] ^= m

    def _pauli(self, a: int, px: int, pz: int) -> None:
        # conjugating by X flips Z and Y components, by Z flips X and Y
        m = 1 << a
        for i in range(2 * self.n):
            anti = (px and self.z[i] & m) ^ (pz and self.x[i] & m)
            if anti:
                self.r[i] ^= 1

    def _cx(self, a: int, b: int) -> None:
        ma, mb = 1 << a, 1 << b
        for i in range(2 * self.n):
            xa, zb = bool(self.x[i] & ma), bool(self.z[i] & mb)
            if xa and zb and (bool(self.x[i] & mb) == bool(self.z[i] & ma)):
                self.r[i] ^= 1
            if xa:
                self.x[i] ^= mb
            if zb:
                self.z[i] ^= ma

    @staticmethod
    def _rowsum(h: tuple, x1: int, z1: int, r1: int) -> tuple:
        """(x, z, r) of row h times row (x1, z1, r1), phase per CHP."""
        x2, z2, r2 = h
        y, xo, zo = x1 & z1, x1 & ~z1, ~x1 & z1
        g = ((y & z2 & ~x2).bit_count() - (y & x2 & ~z2).bit_count()
             + (xo & z2 & x2).bit_count() - (xo & z2 & ~x2).bit_count()
             + (zo & x2 & ~z2).bit_count() - (zo & x2 & z2).bit_count())
        r = 0 if (2 * r2 + 2 * r1 + g) % 4 == 0 else 1
        return x2 ^ x1, z2 ^ z1, r

    def z_outcome(self, a: int):
        """None when measuring Z on qubit a is random, else the fixed bit."""
        m = 1 << a
        n = self.n
        if any(self.x[i] & m for i in range(n, 2 * n)):
            return None
        acc = (0, 0, 0)
        for i in range(n):
            if self.x[i] & m:
                acc = self._rowsum(acc, self.x[i + n], self.z[i + n], self.r[i + n])
        return acc[2]


def stabilizer_outcomes(n: int, ops: tuple) -> list:
    """Per-qubit Z outcome (None = random) of the circuit's final state."""
    tab = Tableau(n)
    for name, qs in ops:
        tab.apply(name, qs)
    return [tab.z_outcome(q) for q in range(n)]


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= AMP_TOL


def check_norm(eng) -> None:
    norm = eng.squared_norm(eng.root)
    _require(abs(norm - 1.0) <= AMP_TOL, f"squared norm {norm}")


def check_stabilizer(eng, n: int, ops: tuple, live: int, samples: list) -> None:
    """Tower of exactly n nodes, and Z probabilities and samples matching
    the tableau."""
    _require(live == n, f"stabilizer state has {live} live nodes, expected {n}")
    for q, want in enumerate(stabilizer_outcomes(n, ops)):
        p0 = eng.measurement_probability(eng.root, n - q, 0)
        expect = 0.5 if want is None else (1.0 if want == 0 else 0.0)
        _require(abs(p0 - expect) <= AMP_TOL, f"qubit {q}: P(0) = {p0}, tableau says {expect}")
        if want is not None:
            _require(all(s[q] == str(want) for s in samples), f"qubit {q}: sample against tableau")


def check_ghz(eng, n: int, rng) -> None:
    amp = 2 ** -0.5
    _require(_close(eng.amplitude("0" * n), amp), "GHZ amplitude of 0...0")
    _require(_close(eng.amplitude("1" * n), amp), "GHZ amplitude of 1...1")
    for _ in range(8):
        bits = "".join(rng.choice("01") for _ in range(n))
        if len(set(bits)) > 1:
            _require(_close(eng.amplitude(bits), 0.0), f"GHZ amplitude of {bits}")


def check_cluster(eng, rows: int, cols: int, edges: list, rng) -> None:
    n = rows * cols
    amp = 2 ** (-n / 2)
    for i in range(16):
        bits = "0" * n if i == 0 else "".join(rng.choice("01") for _ in range(n))
        sign = (-1) ** sum(bits[a] == "1" == bits[b] for a, b in edges)
        got = eng.amplitude(bits)
        _require(_close(got, sign * amp), f"cluster amplitude of {bits}: {got}")


def check_w(eng, n: int, live: int, samples: list, rng) -> None:
    _require(live <= 4 * n * n, f"W state has {live} live nodes > 4n^2")
    amp = 1.0 / math.sqrt(n)
    for q in range(n):
        bits = "0" * q + "1" + "0" * (n - q - 1)
        _require(_close(eng.amplitude(bits), amp), f"W amplitude of {bits}")
    _require(_close(eng.amplitude("0" * n), 0.0), "W amplitude of 0...0")
    for _ in range(4):
        a, b = rng.sample(range(n), 2)
        bits = "".join("1" if q in (a, b) else "0" for q in range(n))
        _require(_close(eng.amplitude(bits), 0.0), f"W amplitude of {bits}")
    _require(all(s.count("1") == 1 for s in samples), "W sample is not one-hot")


def check_dense(eng, reference: np.ndarray, samples: list) -> None:
    delta = float(np.max(np.abs(eng.to_dense() - reference)))
    _require(delta <= DENSE_TOL, f"max amplitude delta {delta:.3e} against the dense oracle")
    for s in samples:
        _require(abs(reference[int(s, 2)]) ** 2 > 1e-12, f"sample {s} has probability zero")
