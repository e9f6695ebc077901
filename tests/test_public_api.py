"""The public ``graphirr`` namespace, pinned so that any added or removed name shows up,
and the one call form of its measure functions: a graph in, a result out."""

import dataclasses
import inspect

import pytest

import graphirr
from graphirr.measures import GraphContext

PUBLIC = [
    "BoundRecord",
    "CANONICAL_CAP",
    "CapabilityError",
    "Classification",
    "DegreeStats",
    "EnumerationSpec",
    "ExtremalResult",
    "Graph",
    "InputError",
    "MeasureSet",
    "TwoWalkParams",
    "VerificationReport",
    "bound_report",
    "canon",
    "canonical_code",
    "check_deviation_conjecture",
    "check_omega_conjecture",
    "classify",
    "complete",
    "complete_multipartite",
    "complete_split",
    "cycle",
    "cyclic_formulas",
    "degree_stats",
    "enumerate_codes_cached",
    "enumerate_range",
    "enumeration",
    "errors",
    "extremal_search",
    "families",
    "format_edge_list",
    "from_edge_list",
    "graph",
    "io",
    "is_connected",
    "max_deviation_split_k",
    "measure_set",
    "measures",
    "named",
    "parse_edge_list",
    "parse_graph",
    "parse_graph6",
    "path",
    "recognize",
    "run_all_suites",
    "run_suite",
    "serialize",
    "spectral",
    "split_deviation_argmax",
    "star",
    "to_graph6",
    "tree_formulas",
    "two_walk_params",
    "two_walk_radius_test",
    "variance_spectral_identity",
    "verify",
    "wheel",
]


def test_public_names_are_pinned():
    assert sorted(graphirr.__all__) == PUBLIC


ONE_GRAPH_IN = [
    graphirr.classify,
    graphirr.measure_set,
    graphirr.bound_report,
    graphirr.tree_formulas,
    graphirr.cyclic_formulas,
    graphirr.two_walk_params,
    graphirr.variance_spectral_identity,
]


@pytest.mark.parametrize("fn", ONE_GRAPH_IN, ids=lambda fn: fn.__name__)
def test_measure_functions_take_the_graph_alone(fn):
    assert len(inspect.signature(fn).parameters) == 1


def test_context_holds_no_graph():
    assert "g" not in {f.name for f in dataclasses.fields(GraphContext)}
