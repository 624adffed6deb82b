"""What the benchmark in ``bench/`` takes from the program.

``bench/tracing.py`` wraps program functions and methods by name, and
``bench/workloads.py`` circuits go through the text format, so a rename or a
format change that would break ``bench/run.py`` (``--trace 1`` above all)
fails here first."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from limdd import circuit, diagram, engine, pauli, states  # noqa: E402

MODULES = {"pauli": pauli, "diagram": diagram, "engine": engine, "circuit": circuit}


def _wrapped_names():
    """(namespace, attribute) of everything ``Tracer.install`` replaces."""
    for _, mod, owner, attr in tracing.SPANS + tracing.COUNTERS:
        yield (getattr(MODULES[mod], owner) if owner else MODULES[mod]), attr
    yield engine.Engine, "run_gate"
    yield engine.Engine, "run_mcx"


def _limdd_modules():
    return [
        m for name, m in list(sys.modules.items())
        if name == "limdd" or name.startswith("limdd.")
    ]


def test_tracer_resolves_every_name_and_uninstall_restores_it():
    originals = [(home, attr, vars(home)[attr]) for home, attr in _wrapped_names()]
    # module functions are also rebound where other modules imported them
    rebound = [
        (m, attr, orig)
        for home, attr, orig in originals
        if not isinstance(home, type)
        for m in _limdd_modules()
        if vars(m).get(attr) is orig
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for home, attr, orig in originals:
            assert vars(home)[attr] is not orig, attr
            assert vars(home)[attr].__wrapped__ is orig, attr
        for m, attr, orig in rebound:
            assert vars(m)[attr] is not orig, (m.__name__, attr)
    finally:
        tracer.uninstall()
    for home, attr, orig in originals:
        assert vars(home)[attr] is orig, attr
    for m, attr, orig in rebound:
        assert vars(m)[attr] is orig, (m.__name__, attr)


def test_workload_circuits_round_trip_through_the_text_format():
    for workload in workloads.WORKLOADS:
        cases = workloads.make_cases(workload, 1)
        assert cases, workload
        for case in cases:
            if case.family == "w":
                # W circuits use mcx, which has no text form
                assert states.w_state_as_circuit(case.n).n == case.n
                continue
            c = circuit.Circuit(case.n, case.ops)
            assert circuit.parse_circuit(circuit.format_circuit(c)) == c, case.name
