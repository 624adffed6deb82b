"""Quantum circuit simulation on Pauli-LIM decision diagrams.

Backends: a reduced decision diagram with Pauli edge labels (default), the
same engine restricted to scalar labels (qmdd mode), and a dense statevector
oracle.  See the README for the CLI and the bit-string conventions.
"""

from .diagram import DiagramError, DiagramStore, Edge, Node, scale_edge
from .engine import Engine, EngineError, EngineStats
from .states import (
    Coset,
    Graph,
    StateError,
    cluster_state,
    coset_state,
    dicke_dense,
    graph_state,
    stabilizer_state,
)
from .circuit import (
    Circuit,
    CircuitError,
    ParseError,
    RunConfig,
    dense_simulate,
    format_circuit,
    parse_circuit,
    run,
)
from .stabrank import AnnealConfig, SearchResult, StabRankError, search_rank, search_with_restarts
from .pauli import NotAStabilizerGroupError, PauliError

__all__ = [
    "AnnealConfig",
    "Circuit",
    "CircuitError",
    "Coset",
    "DiagramError",
    "DiagramStore",
    "Edge",
    "Engine",
    "EngineError",
    "EngineStats",
    "Graph",
    "Node",
    "ParseError",
    "RunConfig",
    "SearchResult",
    "StabRankError",
    "StateError",
    "cluster_state",
    "coset_state",
    "dense_simulate",
    "dicke_dense",
    "format_circuit",
    "graph_state",
    "parse_circuit",
    "run",
    "scale_edge",
    "search_rank",
    "search_with_restarts",
    "stabilizer_state",
    "NotAStabilizerGroupError",
    "PauliError",
]
