"""Format round trips, with networkx as the graph6 byte-level oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings

from graphirr.errors import CapabilityError, InputError
from graphirr.families import complete_split, cycle, path, star
from graphirr.graph import from_edge_list
from graphirr.io import (
    format_edge_list,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    to_graph6,
)

from conftest import graphs


def nx_graph6(g) -> str:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestGraph6:
    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=8))
    def test_bit_exact_vs_networkx(self, g):
        assert to_graph6(g) == nx_graph6(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=8))
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_header_accepted(self):
        g = path(4)
        assert parse_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_known_encodings(self):
        # n=1 encodes to '@'; K_4 to 'C~'
        assert to_graph6(from_edge_list(1, [])) == "@"
        assert to_graph6(from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])) == "C~"

    def test_large_n_round_trip(self):
        g = path(200)
        assert parse_graph6(to_graph6(g)) == g

    def test_size_encoding_boundary(self):
        # n = 62 is the last single-byte size; n = 63 switches to the
        # four-byte escape form
        for n in (61, 62, 63, 64):
            g = cycle(n)
            encoded = to_graph6(g)
            assert parse_graph6(encoded) == g
            assert encoded == nx_graph6(g), n
        assert to_graph6(cycle(62))[0] != chr(126)
        assert to_graph6(cycle(63))[0] == chr(126)

    def test_bad_length_rejected(self):
        with pytest.raises(InputError):
            parse_graph6("C")

    def test_bad_bytes_rejected(self):
        with pytest.raises(InputError):
            parse_graph6("C\x1f!")

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            parse_graph6("")


class TestEdgeList:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=7))
    def test_round_trip(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_format(self):
        text = format_edge_list(path(3))
        assert text == "3 2\n0 1\n1 2\n"

    def test_wrong_edge_count(self):
        with pytest.raises(InputError):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(InputError):
            parse_edge_list("3 1\n0 x\n")

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            parse_edge_list("3 1\n1 1\n")

    def test_vertex_cap_before_allocation(self):
        # one past the largest graph6 size; refused before [0] * n is built
        with pytest.raises(CapabilityError):
            parse_edge_list("258048 0\n")


class TestAutodetect:
    def test_edge_list_detected(self):
        g = parse_graph("4 3\n0 1\n1 2\n2 3\n")
        assert g == path(4)

    @settings(max_examples=50, deadline=None)
    @given(graphs(min_n=2, max_n=7))
    def test_graph6_detected(self, g):
        assert parse_graph(to_graph6(g)) == g

    def test_families_round_trip(self):
        for g in (cycle(6), star(9), complete_split(7, 2)):
            assert parse_graph(to_graph6(g)) == g
            assert parse_graph(format_edge_list(g)) == g
