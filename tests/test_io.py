"""Format round trips, with networkx as the graph6 byte-level oracle."""

import binascii
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphirr.errors import CapabilityError, InputError
from graphirr.families import complete_split, cycle, path, star
from graphirr.graph import Graph, from_edge_list
from graphirr.io import (
    _BASE64_TO_G6,
    _G6_CHARS,
    _G6_MAX_N,
    _G6_TO_BASE64,
    GEN_MAX_M,
    GEN_MAX_N,
    _body_length,
    _size_chars,
    format_edge_list,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    to_graph6,
)

from conftest import graphs, seeded_random_graphs


@st.composite
def edge_list_texts(draw) -> str:
    """Edge lists whose header is near, at or over the caps, or does not match its lines."""
    edges = draw(st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=6))
    n = draw(
        st.one_of(
            st.integers(-2, 10),
            st.integers(GEN_MAX_N - 1, GEN_MAX_N + 1),
            st.integers(258_047, 10**7),
        )
    )
    m = draw(
        st.one_of(st.just(len(edges)), st.integers(-2, 10), st.integers(GEN_MAX_M, GEN_MAX_M + 1))
    )
    lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines + draw(st.lists(st.text(max_size=8), max_size=2)))


def nx_graph6(g) -> str:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


@st.composite
def sparse_graphs(draw, min_n: int, max_n: int):
    """Up to two edges per vertex at random, for orders beyond ``graphs``' reach."""
    n = draw(st.integers(min_n, max_n))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    return from_edge_list(n, [(u, v) for u, v in edges if u != v])


# n >= 63 takes graph6's four-byte size form
ANY_SIZE = st.one_of(graphs(max_n=8), sparse_graphs(9, 62), sparse_graphs(63, 130))


@st.composite
def dense_graphs(draw, min_n: int, max_n: int):
    """Any edge set on ``min_n``..``max_n`` vertices, each pair drawn as one bit."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edge_list(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])


def bitwise_graph6(g) -> str:
    """The graph6 writer packing one bit at a time: the reference for ``to_graph6``."""
    n = g.n
    chars = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (g.rows[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                chars.append(acc + 63)
                acc = nbits = 0
    if nbits:
        chars.append((acc << (6 - nbits)) + 63)
    return "".join(map(chr, chars))


def whole_string_graph6(g) -> str:
    """The writer ``to_graph6`` replaced, packing every column into one string first."""
    n, rows = g.n, g.rows
    bits = "".join([bin(rows[j] & ((1 << j) - 1) | 1 << j)[:2:-1] for j in range(1, n)])
    size = len(bits)
    pad = -size % 24
    data = (int(bits, 2) << pad if bits else 0).to_bytes((size + pad) // 8, "big")
    body = binascii.b2a_base64(data, newline=False).translate(_BASE64_TO_G6)
    return (bytes(_size_chars(n)) + body[: _body_length(n)]).decode("ascii")


def bitwise_parse_graph6(code: str) -> Graph:
    """The graph6 reader unpacking one bit at a time: the reference for ``parse_graph6``.

    Takes a well-formed code without a header; bits past the last pair are ignored.
    """
    data = [ord(c) - 63 for c in code]
    if data[0] == 63:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    else:
        n, body = data[0], data[1:]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


def reference_parse_graph6(text: str) -> Graph:
    """The column-by-column reader that the set-bit one replaced, body unchanged.

    The body is translated back to base64 and decoded to one integer whose
    bits are the upper triangle in column order; column j, reversed, is the
    part of ``rows[j]`` below j, and each of its bits is mirrored into the
    row of the other end.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputError("empty graph6 string")
    if not s.isascii() or s.encode("ascii").translate(None, _G6_CHARS):
        if len(s.split()) > 1:
            raise InputError("input holds more than one graph6 code; give one graph")
        raise InputError("graph6 string contains bytes outside 63..126")
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) < 4:
            raise InputError("truncated graph6 size field")
        if data[1] == 126:  # the 8-byte size form, used only for larger n
            raise CapabilityError(f"graph6 reader supports n <= {_G6_MAX_N}")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise InputError("graph6 graph must have at least one vertex")
    need = _body_length(n)
    if len(body) != need:
        raise InputError(
            f"graph6 body length {len(body)} does not match n={n} (expected {need})"
        )
    packed = binascii.a2b_base64(body.translate(_G6_TO_BASE64) + b"A" * (-need % 4))
    bits = f"{int.from_bytes(packed, 'big'):0{8 * len(packed)}b}"  # pair k is bits[k]
    rows = [0] * n
    for j in range(1, n):
        rows[j] = column = int(bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1], 2)
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph(n, tuple(rows))


@st.composite
def raw_graph6(draw, min_n: int, max_n: int) -> str:
    """A well-formed code with every body character drawn, padding bits included."""
    n = draw(st.integers(min_n, max_n))
    size = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    length = (n * (n - 1) // 2 + 5) // 6
    bits = draw(st.integers(0, (1 << 6 * length) - 1))
    body = [(bits >> 6 * k & 63) + 63 for k in range(length)]
    return "".join(map(chr, size + body))


@st.composite
def damaged_graph6(draw) -> str:
    """A graph6 code, maybe with its header, with a slice replaced by arbitrary text."""
    code = draw(st.sampled_from(["", ">>graph6<<"])) + to_graph6(draw(ANY_SIZE))
    start = draw(st.integers(0, len(code)))
    stop = draw(st.integers(start, min(start + 3, len(code))))
    return code[:start] + draw(st.text(max_size=3)) + code[stop:]


class TestGraph6:
    @settings(max_examples=200, deadline=None)
    @given(ANY_SIZE)
    def test_bit_exact_vs_networkx(self, g):
        assert to_graph6(g) == nx_graph6(g)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_graphs(1, 62), dense_graphs(63, 70), sparse_graphs(1, 70)))
    def test_byte_identical_to_bitwise_writer(self, g):
        # both size forms: one byte up to n = 62, four from n = 63
        assert to_graph6(g) == bitwise_graph6(g)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(raw_graph6(1, 62), raw_graph6(63, 70)))
    def test_same_graph_as_bitwise_reader(self, code):
        # both size forms: one byte up to n = 62, four from n = 63
        assert parse_graph6(code) == bitwise_parse_graph6(code)

    def test_large_path_same_graph_as_bitwise_reader(self):
        code = to_graph6(path(5000))
        assert parse_graph6(code) == bitwise_parse_graph6(code) == path(5000)

    @settings(max_examples=200, deadline=None)
    @given(ANY_SIZE)
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(ANY_SIZE)
    def test_header_accepted(self, g):
        assert parse_graph6(">>graph6<<" + to_graph6(g)) == g

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=40), damaged_graph6()))
    def test_malformed_text_raises_only_input_or_capability_errors(self, text):
        try:
            g = parse_graph6(text)
        except (InputError, CapabilityError):
            return
        assert parse_graph6(to_graph6(g)) == g

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

    def test_eight_byte_size_form_refused(self):
        # "~~" then 36 bits of n = 2**24: refused by the cap, not misread
        with pytest.raises(CapabilityError, match="n <= 258047"):
            parse_graph6("~~?@????")


class TestAgainstReferenceDecoder:
    """``parse_graph6`` gives the rows of the reader it replaced on every code below."""

    def test_population_codes(self, oracle_codes):
        # whole n <= 7, trees n <= 12, unicyclic n <= 10
        assert len(oracle_codes) == 1252 + 986 + 1040
        for code in oracle_codes:
            assert parse_graph6(code) == reference_parse_graph6(code), code

    def test_seeded_random_graphs(self):
        graphs = seeded_random_graphs()
        assert {g.m > 8 * g.n for g in graphs} == {False, True}  # both ways of reading
        codes = [to_graph6(g) for g in graphs]
        assert {code[0] == "~" for code in codes} == {False, True}  # both size forms
        for code in codes:
            assert parse_graph6(code) == reference_parse_graph6(code), code

    @pytest.mark.parametrize(
        "g", [path(5000), complete_split(1500, 700)], ids=["path5000", "cs1500-700"]
    )
    def test_large_sparse_and_dense(self, g):
        # a path is read from its set bits; CS(1500, 700) in three column blocks
        code = to_graph6(g)
        assert parse_graph6(code) == reference_parse_graph6(code) == g


class TestAgainstWholeStringWriter:
    """``to_graph6`` writes the bytes of the writer it replaced, block by block."""

    def test_seeded_random_graphs(self):
        rng = random.Random(100)
        for n in range(1, 101):
            for p in (0.05, 0.5, 0.95):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                g = from_edge_list(n, [e for e in pairs if rng.random() < p])
                assert to_graph6(g) == whole_string_graph6(g), (n, p)

    @pytest.mark.parametrize(
        "g", [path(5000), complete_split(1500, 700)], ids=["path5000", "cs1500-700"]
    )
    def test_many_blocks(self, g):
        # path(5000) in 27 blocks of up to 192 columns, CS(1500, 700) in 3 of up to 672
        assert to_graph6(g) == whole_string_graph6(g)


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

    @pytest.mark.parametrize(
        "text, cap",
        [("5001 0\n", "n=5000"), ("10 500001\n0 1\n", "m=500000")],
        ids=["n", "m"],
    )
    def test_header_over_caps_refused_before_any_row(self, monkeypatch, text, cap):
        def no_build(*args):
            raise AssertionError("a row was built for a header over the caps")

        monkeypatch.setattr("graphirr.io.from_edge_list", no_build)
        with pytest.raises(CapabilityError, match=f"capped at {cap}"):
            parse_edge_list(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(edge_list_texts(), st.text(max_size=40)))
    def test_readers_raise_only_their_errors(self, text):
        head = text.split()[:2]
        try:
            n, m = int(head[0]), int(head[1])
        except (IndexError, ValueError):
            n, m = 0, 0
        over_caps = n > GEN_MAX_N or (n >= 1 and m > GEN_MAX_M)
        for parse in (parse_edge_list, parse_graph):
            built = []

            def spy(n, edges):
                built.append(n)
                return from_edge_list(n, edges)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("graphirr.io.from_edge_list", spy)
                try:
                    parse(text)
                except (InputError, CapabilityError):
                    pass
            assert not (over_caps and built), text


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
