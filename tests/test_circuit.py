"""Circuit text format, dense oracle, run driver and CLI surface."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import limdd.circuit as circuit_mod
from limdd.circuit import (
    Circuit,
    CircuitError,
    ParseError,
    RunConfig,
    build_engine,
    compare_modes,
    dense_simulate,
    format_circuit,
    parse_circuit,
    run,
)
from limdd.cli import main as cli_main
from limdd.states import w_state_as_circuit
from oracles import cluster_circuit

BELL = "qubits 2\nh 0\ncx 0 1\n"


def test_parse_single_gate():
    c = parse_circuit("qubits 1\nh 0")
    assert c == Circuit(1, (("h", (0,)),), ())


def test_parse_bell_with_comments():
    text = "# prepare a Bell pair\nqubits 2\n\nh 0   # top qubit\ncx 0 1\nmeasure_all\n"
    c = parse_circuit(text)
    assert c.n == 2
    assert c.ops == (("h", (0,)), ("cx", (0, 1)))
    assert c.measures == (("measure_all",),)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("h 0", 1, "qubits"),
        ("qubits 2\nqubits 2", 2, "duplicate"),
        ("qubits 0", 1, "positive"),
        ("qubits x", 1, "bad qubit count"),
        ("qubits 2\nfoo 0", 2, "unknown gate"),
        ("qubits 2\nh 0 1", 2, "argument"),
        ("qubits 2\ncx 0", 2, "argument"),
        ("qubits 2\ncx 0 5", 2, "out of range"),
        ("qubits 2\ncx 1 1", 2, "distinct"),
        ("qubits 2\nh q", 2, "bad qubit index"),
        ("qubits 2\nmeasure 0\nh 1", 3, "follow"),
        ("qubits 2\nmeasure 0 1", 2, "argument"),
        ("", 1, "missing"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_format_parse_round_trip():
    rng = np.random.default_rng(50)
    names = ["h", "s", "sdg", "t", "x", "y", "z"]
    for _ in range(20):
        n = int(rng.integers(1, 6))
        ops = []
        for _ in range(int(rng.integers(0, 15))):
            if n >= 2 and rng.random() < 0.3:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(("cx" if rng.random() < 0.5 else "cz", (int(a), int(b))))
            else:
                ops.append((names[int(rng.integers(0, 7))], (int(rng.integers(0, n)),)))
        measures = []
        if rng.random() < 0.5:
            measures.append(("measure", int(rng.integers(0, n))))
        if rng.random() < 0.3:
            measures.append(("measure_all",))
        c = Circuit(n, tuple(ops), tuple(measures))
        assert parse_circuit(format_circuit(c)) == c
    # the identity gate is part of the grammar too
    c = Circuit(2, (("i", (0,)), ("h", (1,)), ("i", (1,))), (("measure_all",),))
    assert format_circuit(c) == "qubits 2\ni 0\nh 1\ni 1\nmeasure_all\n"
    assert parse_circuit(format_circuit(c)) == c


def test_format_rejects_mcx():
    with pytest.raises(CircuitError):
        format_circuit(w_state_as_circuit(4))


def test_mcx_rejects_bad_wanted_bits():
    c = Circuit(3, (("x", (1,)), ("mcx", (0, (1, 1), (2, 3)))))
    with pytest.raises(CircuitError, match="wanted bits"):
        dense_simulate(c)
    with pytest.raises(CircuitError, match="wanted bits"):
        build_engine(c, "limdd")


def test_dense_single_hadamard():
    vec = dense_simulate(parse_circuit("qubits 1\nh 0"))
    assert np.allclose(vec, np.full(2, 1 / math.sqrt(2)), atol=1e-12)


def test_dense_bell():
    vec = dense_simulate(parse_circuit(BELL))
    assert np.allclose(vec, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)


def test_dense_w_circuit():
    vec = dense_simulate(w_state_as_circuit(8))
    want = np.zeros(256, dtype=complex)
    for k in range(8):
        want[1 << k] = 1 / math.sqrt(8)
    assert np.max(np.abs(vec - want)) < 1e-12


def test_dense_limit():
    with pytest.raises(CircuitError):
        dense_simulate(Circuit(15))


def test_build_engine_maps_user_qubits_for_tdg():
    # user qubit 1 of 3 is engine qubit 2: only amplitudes with bit 1 set turn
    c = parse_circuit("qubits 3\nh 0\nh 1\nh 2\ntdg 1\n")
    turned = np.exp(-1j * math.pi / 4) / math.sqrt(8)
    plain = 1 / math.sqrt(8)
    for mode in ("limdd", "qmdd"):
        eng = build_engine(c, mode)
        for bits in ("000", "001", "010", "100", "111"):
            want = turned if bits[1] == "1" else plain
            assert eng.amplitude(bits) == pytest.approx(want, abs=1e-12)
    assert np.allclose(dense_simulate(c), build_engine(c, "limdd").to_dense(), atol=1e-12)


def test_dense_matches_engines_on_random_circuits():
    rng = np.random.default_rng(51)
    names = ["h", "s", "sdg", "t", "x", "y", "z"]
    for _ in range(10):
        n = int(rng.integers(1, 7))
        ops = []
        for _ in range(25):
            if n >= 2 and rng.random() < 0.35:
                a, b = rng.choice(n, size=2, replace=False)
                ops.append(("cx" if rng.random() < 0.5 else "cz", (int(a), int(b))))
            else:
                ops.append((names[int(rng.integers(0, 7))], (int(rng.integers(0, n)),)))
        c = Circuit(n, tuple(ops))
        assert compare_modes(c, "limdd", "dense") < 1e-8
        assert compare_modes(c, "qmdd", "dense") < 1e-8


@pytest.mark.parametrize(
    "c",
    [w_state_as_circuit(16), w_state_as_circuit(32), cluster_circuit(5, 5)],
    ids=["w16", "w32", "cluster5x5"],
)
def test_compare_modes_samples_past_the_dense_limit(c):
    assert c.n > circuit_mod.DENSE_LIMIT
    assert compare_modes(c, "limdd", "qmdd") < 1e-8


def test_sampled_comparison_sees_a_different_state(monkeypatch):
    c = w_state_as_circuit(16)
    flipped = Circuit(c.n, c.ops + (("x", (0,)),))
    real = circuit_mod.build_engine
    monkeypatch.setattr(
        circuit_mod,
        "build_engine",
        lambda circ, mode: real(flipped if mode == "qmdd" else circ, mode),
    )
    assert compare_modes(c, "limdd", "qmdd") == pytest.approx(0.25)
    with pytest.raises(CircuitError):
        compare_modes(c, "limdd", "dense")


def test_run_amplitudes_all_modes():
    c = parse_circuit(BELL)
    for mode in ("limdd", "qmdd", "dense"):
        report = run(RunConfig(mode=mode, amplitudes=("00", "01", "11")), c)
        assert report["schema"] == 1
        amps = {a["bits"]: complex(a["re"], a["im"]) for a in report["amplitudes"]}
        assert amps["00"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert amps["01"] == pytest.approx(0.0, abs=1e-10)
        assert amps["11"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_run_shots_deterministic_per_seed():
    c = parse_circuit(BELL + "measure_all\n")
    for mode in ("limdd", "dense"):
        r1 = run(RunConfig(mode=mode, shots=200, seed=7), c)
        r2 = run(RunConfig(mode=mode, shots=200, seed=7), c)
        assert r1["counts"] == r2["counts"]
        assert set(r1["counts"]) <= {"00", "11"}
        assert sum(r1["counts"].values()) == 200


def test_run_measure_subset():
    c = parse_circuit(BELL + "measure 1\n")
    report = run(RunConfig(shots=50, seed=3), c)
    assert report["measured"] == [1]
    assert set(report["counts"]) <= {"0", "1"}


def test_repeated_measure_reports_equal_bits():
    c = parse_circuit(BELL + "measure 0\nmeasure 0\nmeasure 1\n")
    for mode in ("limdd", "qmdd", "dense"):
        report = run(RunConfig(mode=mode, shots=100, seed=5), c)
        assert report["measured"] == [0, 0, 1]
        assert set(report["counts"]) == {"000", "111"}


def test_shots_are_engine_sample_draws():
    # under measure_all the counts are the seeded Engine.sample draws
    rng = np.random.default_rng(41)
    n = 5
    lines = [f"qubits {n}"]
    for _ in range(30):
        if rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            lines.append(f"{('cx', 'cz')[int(rng.integers(0, 2))]} {a} {b}")
        else:
            name = ("h", "s", "t", "tdg")[int(rng.integers(0, 4))]
            lines.append(f"{name} {int(rng.integers(0, n))}")
    c = parse_circuit("\n".join(lines) + "\nmeasure_all\n")
    for mode in ("limdd", "qmdd"):
        report = run(RunConfig(mode=mode, shots=300, seed=9), c)
        eng = build_engine(c, mode)
        draws = np.random.default_rng(9)
        want: dict = {}
        for _ in range(300):
            bits = eng.sample(draws)
            want[bits] = want.get(bits, 0) + 1
        assert len(want) > 1
        assert report["counts"] == want


def test_dense_shots_match_one_draw_per_shot():
    # all dense shots come from one rng.choice; the counts for a seed are
    # those of one rng.choice call per shot
    n = 9
    text = f"qubits {n}\n" + "".join(f"h {q}\nt {q}\n" for q in range(n))
    c = parse_circuit(text + "cx 0 4\ncz 2 7\nmeasure 5\nmeasure 1\n")
    report = run(RunConfig(mode="dense", shots=500, seed=13), c)
    probs = np.abs(dense_simulate(c)) ** 2
    probs = probs / probs.sum()
    draws = np.random.default_rng(13)
    want: dict = {}
    for _ in range(500):
        full = format(int(draws.choice(probs.size, p=probs)), f"0{n}b")
        key = full[5] + full[1]
        want[key] = want.get(key, 0) + 1
    assert len(want) == 4
    assert report["counts"] == dict(sorted(want.items()))


def test_run_stats_cluster_separation():
    from limdd.states import cluster_state

    # node counts reported by the two diagram modes on the same state
    grid = cluster_state(4, 4)  # only for the reference count
    text_ops = []
    n = 16
    for q in range(n):
        text_ops.append(f"h {q}")
    edges = set()
    for r in range(4):
        for cidx in range(4):
            v = r * 4 + cidx
            if cidx + 1 < 4:
                edges.add((v, v + 1))
            if r + 1 < 4:
                edges.add((v, v + 4))
    for a, b in sorted(edges):
        text_ops.append(f"cz {a} {b}")
    text = f"qubits {n}\n" + "\n".join(text_ops)
    c = parse_circuit(text)
    lim = run(RunConfig(mode="limdd", stats=True), c)
    qm = run(RunConfig(mode="qmdd", stats=True), c)
    assert lim["stats"]["node_count"] == grid.node_count() == 16
    assert qm["stats"]["node_count"] > lim["stats"]["node_count"]


def test_run_compare_report():
    c = parse_circuit(BELL)
    report = run(RunConfig(mode="limdd", compare="dense"), c)
    assert report["compare"]["mode"] == "dense"
    assert report["compare"]["max_delta"] < 1e-10


def test_run_dot_output(tmp_path):
    c = parse_circuit(BELL)
    out = tmp_path / "bell.dot"
    report = run(RunConfig(dot=str(out)), c)
    assert report["dot"] == str(out)
    assert "digraph" in out.read_text()
    with pytest.raises(CircuitError):
        run(RunConfig(mode="dense", dot=str(out)), c)


def test_run_rejects_bad_amplitude_strings():
    c = parse_circuit(BELL)
    with pytest.raises(CircuitError):
        run(RunConfig(amplitudes=("0",)), c)
    with pytest.raises(CircuitError):
        run(RunConfig(amplitudes=("02",)), c)


def test_cli_run_basic(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL + "measure_all\n")
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["run", str(path), "--amplitude", "11", "--shots", "10", "--seed", "1"],
    )
    assert res.exit_code == 0
    assert "amplitude 11 = 0.707106781187+0j" in res.output
    assert "count" in res.output


def test_cli_run_json(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    runner = CliRunner()
    res = runner.invoke(
        cli_main, ["run", str(path), "--stats", "--compare", "dense", "--json"]
    )
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["schema"] == 1
    assert report["compare"]["max_delta"] < 1e-8
    assert report["stats"]["gate_count"] == 2


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 2\ncx 0 5\n")
    runner = CliRunner()
    res = runner.invoke(cli_main, ["run", str(path)])
    assert res.exit_code == 2
    assert "line 2" in res.output


def test_cli_qmdd_gate_on_the_lowest_of_600_qubits(tmp_path):
    # the apply descends through all 600 levels on an explicit stack
    path = tmp_path / "deep.qc"
    path.write_text("qubits 600\nh 599\n")
    res = CliRunner().invoke(cli_main, ["run", str(path), "--mode", "qmdd", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["n"] == 600


def test_cli_engine_error_is_one_line(tmp_path):
    path = tmp_path / "wide.qc"
    path.write_text("qubits 20\nh 19\n")
    res = CliRunner().invoke(cli_main, ["run", str(path), "--mode", "dense"])
    assert res.exit_code == 1
    assert res.output.startswith("error: dense simulation limited to 14 qubits")
    assert res.output.count("\n") == 1


def test_cli_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.qc"
    path.write_bytes("qubits 1\n# caf\xe9\nh 0\n".encode("latin-1"))
    res = CliRunner().invoke(cli_main, ["run", str(path)])
    assert res.exit_code == 2
    assert res.output.startswith("parse error: ")
    assert "UTF-8" in res.output
    assert isinstance(res.exception, SystemExit)


def test_cli_unwritable_dot_path_is_an_error(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    dot = tmp_path / "missing" / "x.dot"
    res = CliRunner().invoke(cli_main, ["run", str(path), "--dot", str(dot)])
    assert res.exit_code == 1
    assert res.output.startswith("error: ")
    assert res.output.count("\n") == 1
    assert isinstance(res.exception, SystemExit)


def test_cli_shots_past_the_recursion_limit(tmp_path):
    # --shots walks Engine.sample, which does not recurse
    path = tmp_path / "deep.qc"
    path.write_text("qubits 600\nh 0\nx 599\n")
    res = CliRunner().invoke(cli_main, ["run", str(path), "--shots", "2", "--json"])
    assert res.exit_code == 0
    counts = json.loads(res.output)["counts"]
    assert sum(counts.values()) == 2
    for bits in counts:
        assert len(bits) == 600 and bits[1:] == "0" * 598 + "1"


def test_cli_compare_failure_exit_code(tmp_path, monkeypatch):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    monkeypatch.setattr(circuit_mod, "compare_modes", lambda *a: 0.5)
    runner = CliRunner()
    res = runner.invoke(cli_main, ["run", str(path), "--compare", "qmdd"])
    assert res.exit_code == 3


def test_cli_seeded_sampling_identical(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL + "measure_all\n")
    runner = CliRunner()
    args = ["run", str(path), "--shots", "1000", "--seed", "7"]
    out1 = runner.invoke(cli_main, args).output
    out2 = runner.invoke(cli_main, args).output
    assert out1 == out2


def test_cli_help_documents_bit_order():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["--help"])
    assert res.exit_code == 0
    assert "qubit 0" in res.output


def test_cli_stabrank_json():
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["stabrank", "--n", "2", "--w", "1", "--chi", "1", "--json", "--seed", "0"],
    )
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["success"] is True
    assert report["residual"] < 1e-6
    assert set(report) == {"n", "w", "chi", "success", "residual", "steps_used"}


_NO_NUMPY = """
import random, sys
sys.modules["numpy"] = None   # any numpy import now raises ImportError
import limdd
from limdd.circuit import build_engine, parse_circuit
c = parse_circuit("qubits 3\\nh 0\\ncx 0 1\\ncx 1 2\\nt 2\\nh 1\\n")
for mode in ("limdd", "qmdd"):
    eng = build_engine(c, mode)
    rng = random.Random(7)
    seen = {eng.sample(rng) for _ in range(64)}
    assert seen == {"000", "010", "101", "111"}, (mode, seen)
"""


def test_package_runs_without_numpy():
    # the diagram modes never load numpy, so import and start-up skip it
    src = str(Path(circuit_mod.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
