"""Circuit text format, dense statevector oracle, and the run driver.

Grammar: one instruction per line, `#` starts a comment.  The first
instruction must be ``qubits N``; gates are ``h|i|s|sdg|t|tdg|x|y|z q``,
``cx c t`` and ``cz a b`` (``engine.GATE_ARITY``, the engine's own gate
set); ``measure q`` and ``measure_all`` must come after all gates.  Qubits
are 0-based with qubit 0 the top of the diagram, and bit strings everywhere
read left to right from qubit 0.

Programmatic circuits may additionally contain a multi-controlled X op
``("mcx", (target, (ctrl, want), ...))`` which has no text form; it exists
so generated circuits (the W-state preparation) run through the same
simulate/compare plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .engine import GATE_ARITY, MAT_1Q, Engine

if TYPE_CHECKING:
    import numpy as np

DENSE_LIMIT = 14
COMPARE_SAMPLES = 64   # strings per engine in compare_modes past DENSE_LIMIT


class CircuitError(Exception):
    pass


class ParseError(CircuitError):
    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


@dataclass(frozen=True)
class Circuit:
    n: int
    ops: tuple = ()
    measures: tuple = ()   # ("measure", q) and ("measure_all",) directives


def parse_circuit(text: str) -> Circuit:
    n: Optional[int] = None
    ops: list = []
    measures: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name, args = tokens[0].lower(), tokens[1:]
        if n is None:
            if name != "qubits":
                raise ParseError(lineno, "expected a `qubits N` header first")
            if len(args) != 1:
                raise ParseError(lineno, "qubits takes one argument")
            try:
                n = int(args[0])
            except ValueError:
                raise ParseError(lineno, f"bad qubit count {args[0]!r}") from None
            if n < 1:
                raise ParseError(lineno, "qubit count must be positive")
            continue
        if name == "qubits":
            raise ParseError(lineno, "duplicate qubits header")
        if name in ("measure", "measure_all"):
            want = 1 if name == "measure" else 0
            if len(args) != want:
                raise ParseError(lineno, f"{name} takes {want} argument(s)")
            qs = _parse_qubits(lineno, args, n)
            measures.append((name, *qs))
            continue
        if name not in GATE_ARITY:
            raise ParseError(lineno, f"unknown gate {name!r}")
        if measures:
            raise ParseError(lineno, "gates cannot follow measurements")
        if len(args) != GATE_ARITY[name]:
            raise ParseError(
                lineno, f"{name} takes {GATE_ARITY[name]} qubit argument(s)"
            )
        qs = _parse_qubits(lineno, args, n)
        if len(set(qs)) != len(qs):
            raise ParseError(lineno, f"{name} needs distinct qubits")
        ops.append((name, qs))
    if n is None:
        raise ParseError(1, "empty circuit: missing `qubits N` header")
    return Circuit(n, tuple(ops), tuple(measures))


def _parse_qubits(lineno: int, args, n: int) -> tuple:
    out = []
    for a in args:
        try:
            q = int(a)
        except ValueError:
            raise ParseError(lineno, f"bad qubit index {a!r}") from None
        if not 0 <= q < n:
            raise ParseError(lineno, f"qubit {q} out of range 0..{n - 1}")
        out.append(q)
    return tuple(out)


def format_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.n}"]
    for name, qs in c.ops:
        if name == "mcx":
            raise CircuitError("mcx ops have no text form")
        lines.append(" ".join([name, *map(str, qs)]))
    for directive in c.measures:
        lines.append(" ".join(map(str, directive)))
    return "\n".join(lines) + "\n"


def measured_qubits(c: Circuit) -> list:
    out: list = []
    for directive in c.measures:
        if directive[0] == "measure_all":
            out.extend(range(c.n))
        else:
            out.append(directive[1])
    return out


# -- dense oracle -----------------------------------------------------------

def dense_simulate(c: Circuit) -> np.ndarray:
    """Statevector after all gates; a reference for the engines that shares
    only the 1-qubit matrix table with them."""
    if c.n > DENSE_LIMIT:
        raise CircuitError(f"dense simulation limited to {DENSE_LIMIT} qubits")
    import numpy as np

    vec = np.zeros(1 << c.n, dtype=complex)
    vec[0] = 1.0
    for name, qs in c.ops:
        vec = _dense_gate(vec, name, qs, c.n)
    return vec


def _dense_gate(vec: np.ndarray, name: str, qs: tuple, n: int) -> np.ndarray:
    import numpy as np

    if name in MAT_1Q:
        t = np.moveaxis(vec.reshape((2,) * n), qs[0], 0)
        t = (np.array(MAT_1Q[name]) @ t.reshape(2, -1)).reshape(t.shape)
        return np.moveaxis(t, 0, qs[0]).reshape(-1)
    idx = np.arange(vec.size)
    if name == "mcx":
        target, controls = _check_mcx(qs, n)
        match = np.ones(vec.size, dtype=bool)
        for q, want in controls:
            match &= ((idx >> (n - 1 - q)) & 1) == want
        src = np.where(match, idx ^ (1 << (n - 1 - target)), idx)
        return vec[src]
    cb, tb = (n - 1 - q for q in qs)   # user qubit 0 is the high bit
    if name == "cx":
        src = np.where((idx >> cb) & 1 == 1, idx ^ (1 << tb), idx)
        return vec[src]
    if name == "cz":
        signs = 1.0 - 2.0 * (((idx >> cb) & (idx >> tb)) & 1)
        return vec * signs
    raise CircuitError(f"unknown gate {name!r}")


def _check_mcx(qs: tuple, n: int) -> tuple:
    target, controls = qs[0], qs[1:]
    used = {target, *(q for q, _ in controls)}
    if len(used) != len(controls) + 1:
        raise CircuitError("mcx qubits must be distinct")
    if any(not 0 <= q < n for q in used):
        raise CircuitError("mcx qubit out of range")
    if any(want not in (0, 1) for _, want in controls):
        raise CircuitError("mcx wanted bits must be 0 or 1")
    return target, controls


# -- run driver -------------------------------------------------------------

@dataclass
class RunConfig:
    mode: str = "limdd"
    seed: int = 0
    shots: int = 0
    amplitudes: tuple = ()
    stats: bool = False
    compare: Optional[str] = None
    dot: Optional[str] = None


def build_engine(c: Circuit, mode: str, debug: bool = False) -> Engine:
    """Run the circuit's ops on a fresh engine, collecting after each op so
    the store stays within a constant factor of the live diagram."""
    eng = Engine(c.n, mode=mode, debug=debug)
    for name, qs in c.ops:
        if name == "mcx":
            target, controls = _check_mcx(qs, c.n)
            eng.run_mcx([(c.n - q, want) for q, want in controls], c.n - target)
        else:
            eng.run_gate(name, *(c.n - q for q in qs))
        eng.collect()
    return eng


def run(config: RunConfig, circuit: Circuit) -> dict:
    if config.mode not in ("limdd", "qmdd", "dense"):
        raise CircuitError(f"unknown mode {config.mode!r}")
    for bits in config.amplitudes:
        if len(bits) != circuit.n or set(bits) - {"0", "1"}:
            raise CircuitError(f"bad amplitude bit string {bits!r}")
    report: dict = {"schema": 1, "mode": config.mode, "n": circuit.n}
    eng: Optional[Engine] = None
    vec: Optional[np.ndarray] = None
    if config.mode == "dense":
        vec = dense_simulate(circuit)
    else:
        eng = build_engine(circuit, config.mode)

    if config.amplitudes:
        amps = []
        for bits in config.amplitudes:
            a = vec[int(bits, 2)] if vec is not None else eng.amplitude(bits)
            amps.append({"bits": bits, "re": float(a.real), "im": float(a.imag)})
        report["amplitudes"] = amps

    if config.shots:
        import numpy as np

        rng = np.random.default_rng(config.seed)
        measured = measured_qubits(circuit) or list(range(circuit.n))
        counts: dict = {}
        for full in _draw_shots(eng, vec, config.shots, circuit.n, rng):
            key = "".join(full[q] for q in measured)
            counts[key] = counts.get(key, 0) + 1
        report["measured"] = measured
        report["counts"] = dict(sorted(counts.items()))

    if config.stats:
        report["stats"] = _stats_dict(eng, circuit)

    if config.dot is not None:
        if eng is None:
            raise CircuitError("dot output needs a diagram mode")
        text = eng.store.to_dot(eng.root)
        try:
            with open(config.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CircuitError(f"cannot write dot file: {exc}") from None
        report["dot"] = config.dot

    if config.compare is not None:
        report["compare"] = {
            "mode": config.compare,
            "max_delta": compare_modes(circuit, config.mode, config.compare),
        }
    return report


def _draw_shots(eng, vec, shots, n, rng):
    """Full basis strings (qubit 0 first), one per shot.  A dense vector's
    distribution is built once and all shots come from one ``rng.choice``,
    which draws the same outcomes as one call per shot."""
    if vec is None:
        return (eng.sample(rng) for _ in range(shots))
    import numpy as np

    probs = np.abs(vec) ** 2
    draws = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    return (format(int(i), f"0{n}b") for i in draws)


def _stats_dict(eng: Optional[Engine], circuit: Circuit) -> dict:
    if eng is None:
        return {"gate_count": len(circuit.ops)}
    out = eng.stats.as_dict()
    out["node_count"] = eng.node_count()
    out["store_nodes"] = eng.store.node_count()
    out["nodes_created"] = eng.store.nodes_created()
    return out


def compare_modes(circuit: Circuit, mode_a: str, mode_b: str) -> float:
    """Max absolute amplitude difference between two backends.

    Up to ``DENSE_LIMIT`` qubits every amplitude is compared.  Past it, two
    diagram backends get a sampled check instead: the difference of their
    squared norms and the amplitude differences on ``COMPARE_SAMPLES``
    basis strings drawn from each engine's own distribution with a fixed
    seed.  A disagreement carrying little probability mass in both states
    can escape the sample."""
    import numpy as np

    if circuit.n <= DENSE_LIMIT:
        vecs = []
        for mode in (mode_a, mode_b):
            if mode == "dense":
                vecs.append(dense_simulate(circuit))
            else:
                vecs.append(build_engine(circuit, mode).to_dense())
        return float(np.max(np.abs(vecs[0] - vecs[1])))
    if "dense" in (mode_a, mode_b):
        raise CircuitError(f"dense comparison needs n <= {DENSE_LIMIT}")
    a, b = (build_engine(circuit, mode) for mode in (mode_a, mode_b))
    delta = abs(a.squared_norm(a.root) - b.squared_norm(b.root))
    rng = np.random.default_rng(0)
    for eng in (a, b):
        for _ in range(COMPARE_SAMPLES):
            bits = eng.sample(rng)
            delta = max(delta, abs(a.amplitude(bits) - b.amplitude(bits)))
    return float(delta)
