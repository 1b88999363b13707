"""subdivlab: sphere tilings, subdivision rules and quasi-isometry
invariants for graph groups and special cube complexes."""

__version__ = "0.1.0"

from .graphs import (DefiningGraph, GraphError, cell_is_ideal, cells_intersect,
                     diagonal_elements, enumerate_cliques, parse_graph_json)
from .words import parse_word
from .balls import (Ball, CapExceeded, InvariantViolation, build_ball,
                    visible_region)

__all__ = [
    "DefiningGraph", "GraphError", "cell_is_ideal", "cells_intersect",
    "diagonal_elements", "enumerate_cliques", "parse_graph_json",
    "parse_word",
    "Ball", "CapExceeded", "InvariantViolation", "build_ball",
    "visible_region", "__version__",
]
