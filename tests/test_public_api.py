"""The public ``graphirr`` namespace, pinned so that any added or removed name shows up,
the one call form of its measure functions (a graph in, a result out), and
every name and command line that ``perfbench/`` reaches."""

import importlib
import inspect

import pytest

import graphirr
from graphirr.cli import build_parser
from graphirr.measures import GraphContext
from graphirr.verify import SUITE_IDS

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
    "run_conjectures",
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
    # the context is the degree profile; all else is derived from these two
    assert GraphContext._fields == ("histogram", "connected")


#: each module attribute that perfbench/layers.py and perfbench/workloads.py call
PERFBENCH_REACH = {
    "graph": ["degree_stats", "classify", "is_connected"],
    "measures": [
        "context",
        "measure_set",
        "bound_report",
        "tree_formulas",
        "cyclic_formulas",
        "NOT_APPLICABLE",
    ],
    "spectral": ["two_walk_params"],
    "canon": ["canonical_rows"],
    "enumeration": ["canonical_rows", "EnumerationSpec", "enumerate_codes_cached"],
    "io": ["parse_graph6", "to_graph6"],
    "families": ["recognize"],
    "serialize": ["fraction_text", "report_json"],
    "verify": [
        "run_suite",
        "run_all_suites",
        "check_deviation_conjecture",
        "check_omega_conjecture",
        "extremal_search",
    ],
}


def test_perfbench_reach_is_kept():
    missing = [
        f"{module}.{attr}"
        for module, attrs in PERFBENCH_REACH.items()
        for attr in attrs
        if not hasattr(importlib.import_module(f"graphirr.{module}"), attr)
    ]
    assert missing == []


#: the command lines the perfbench workloads run, cache and output paths aside
PERFBENCH_COMMANDS = {
    "verify-all-n6": ["verify", "--suite", "all", "--max-n", "6", "--workers", "1"],
    "conjectures-n6": ["conjectures", "--max-n", "6", "--workers", "1"],
    "extremal-7-11-w2": ["extremal", "--n", "7", "--m", "11", "--workers", "2"],
    "fill-trees-12": [
        "verify", "--suite", "max_zagreb_universal", "--population", "trees", "--max-n", "12"
    ],
    "verify-unicyclic-10": [
        "verify", "--suite", "all", "--population", "unicyclic", "--max-n", "10"
    ],
}


@pytest.mark.parametrize("name", sorted(PERFBENCH_COMMANDS))
def test_perfbench_command_lines_parse(name):
    argv = PERFBENCH_COMMANDS[name] + ["--cache-dir", "cache"]
    if name != "fill-trees-12":
        argv += ["--out", "out.json"]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0] and args.cache_dir == "cache"
    assert getattr(args, "suite", "all") in ("all", *SUITE_IDS)
