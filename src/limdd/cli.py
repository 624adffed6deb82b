"""Command-line interface: `limdd-sim run` and `limdd-sim stabrank`."""

from __future__ import annotations

import json
import sys

import click

from .circuit import CircuitError, ParseError, RunConfig, parse_circuit, run
from .engine import EngineError
from .states import StateError

_COMPARE_TOL = 1e-8


@click.group()
def main():
    """Quantum circuit simulator backed by Pauli-labelled decision diagrams.

    Qubits are numbered from 0 at the top of the diagram; every bit string
    (amplitude queries, sample outputs) reads left to right starting with
    qubit 0.
    """


@main.command(name="run")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--mode",
    type=click.Choice(["limdd", "qmdd", "dense"]),
    default="limdd",
    show_default=True,
    help="Simulation backend.",
)
@click.option(
    "--amplitude",
    "amplitudes",
    multiple=True,
    metavar="BITS",
    help="Report the amplitude of a basis state; repeatable.",
)
@click.option("--shots", type=click.IntRange(min=0), default=0, help="Sample count.")
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
@click.option("--stats", is_flag=True, help="Report engine statistics.")
@click.option(
    "--compare",
    type=click.Choice(["limdd", "qmdd", "dense"]),
    default=None,
    help="Also run a second backend and report the max amplitude difference.",
)
@click.option(
    "--dot",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the final diagram in dot format.",
)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def run_command(file, mode, amplitudes, shots, seed, stats, compare, dot, as_json):
    """Simulate the circuit in FILE."""
    try:
        with open(file, "r", encoding="utf-8") as fh:
            circuit = parse_circuit(fh.read())
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(2)
    except UnicodeDecodeError as exc:
        click.echo(f"parse error: {file} is not UTF-8 text ({exc.reason} at byte {exc.start})", err=True)
        sys.exit(2)
    config = RunConfig(
        mode=mode,
        seed=seed,
        shots=shots,
        amplitudes=tuple(amplitudes),
        stats=stats,
        compare=compare,
        dot=dot,
    )
    try:
        report = run(config, circuit)
    except (CircuitError, EngineError, StateError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_report(report)
    if compare is not None and report["compare"]["max_delta"] > _COMPARE_TOL:
        click.echo(
            f"comparison failed: max_delta {report['compare']['max_delta']:.3e} "
            f"> {_COMPARE_TOL:g}",
            err=True,
        )
        sys.exit(3)


def _print_report(report: dict) -> None:
    for amp in report.get("amplitudes", ()):
        value = complex(amp["re"], amp["im"])
        click.echo(f"amplitude {amp['bits']} = {value.real:.12g}{value.imag:+.12g}j")
    if "counts" in report:
        click.echo("measured qubits: " + " ".join(map(str, report["measured"])))
        for bits, count in report["counts"].items():
            click.echo(f"count {bits} = {count}")
    for key, value in report.get("stats", {}).items():
        click.echo(f"{key}={value}")
    if "compare" in report:
        click.echo(
            f"compare {report['mode']} vs {report['compare']['mode']}: "
            f"max_delta = {report['compare']['max_delta']:.3e}"
        )
    if "dot" in report:
        click.echo(f"dot written to {report['dot']}")


@main.command(name="stabrank")
@click.option("--n", "n", type=click.IntRange(min=1), required=True, help="Qubits.")
@click.option(
    "--w", "w", type=click.IntRange(min=0), required=True, help="Dicke weight."
)
@click.option(
    "--chi", type=click.IntRange(min=1), required=True, help="Set size to try."
)
@click.option(
    "--restarts",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Independent seeded annealing runs.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def stabrank_command(n, w, chi, restarts, seed, as_json):
    """Search for a rank-CHI stabilizer decomposition of the Dicke state."""
    from .stabrank import StabRankError, search_with_restarts

    try:
        result = search_with_restarts(n, w, chi, restarts=restarts, seed=seed)
    except (StabRankError, StateError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    report = {
        "n": n,
        "w": w,
        "chi": chi,
        "success": result.success,
        "residual": result.residual,
        "steps_used": result.steps_used,
    }
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            click.echo(f"{key}={value}")


if __name__ == "__main__":
    main()
