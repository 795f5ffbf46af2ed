"""Pursuit-evasion on graphs.

Wide shadows on isometric subgraphs, Helly recognition, exact cops-and-robbers
solvers with per-turn movement caps, subgraph guarding, and a constructive
strategy where three cops (at most two moving per turn) capture the robber on
any connected planar graph.
"""

from __future__ import annotations

from pursuit.graphs import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    Path,
    ball,
    distance_matrix,
    from_edge_list,
    from_graph6,
    is_isometric_subgraph,
    shortest_path,
    to_edge_list,
    to_graph6,
)
from pursuit.referee import Trace, validate_trace
from pursuit.strategy import run_two_move_strategy

__all__ = [
    "UNREACHABLE",
    "DistanceMatrix",
    "Graph",
    "Path",
    "Trace",
    "ball",
    "distance_matrix",
    "from_edge_list",
    "from_graph6",
    "is_isometric_subgraph",
    "run_two_move_strategy",
    "shortest_path",
    "to_edge_list",
    "to_graph6",
    "validate_trace",
]

__version__ = "0.1.0"
