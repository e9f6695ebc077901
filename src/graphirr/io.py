"""Graph interchange formats: graph6 and a plain edge-list text format.

graph6 follows the standard byte layout (size bytes offset by 63, then the
upper triangle in column order packed 6 bits per byte) so output is
bit-exact against existing corpora.  The edge-list format is one header
line ``n m`` followed by ``m`` lines ``u v`` with 0-based endpoints.
"""

from __future__ import annotations

import binascii

from .errors import CapabilityError, InputError
from .graph import Graph, from_edge_list

_G6_MAX_N = 258047  # largest n encodable with the 4-byte size form
# The caps on a graph built from its order and edge count alone: an edge-list
# header, a `gen` family member, a `split-k` order.  A graph keeps one n-bit
# row per vertex, its graph6 text has n^2/12 characters and its edge list one
# tuple per edge: at either cap `gen` peaks at about 100 MB.  A graph6 input is
# held to its own size limit only, as its text already grows with n^2.
GEN_MAX_N = 5_000
GEN_MAX_M = 500_000
_G6_CHARS = bytes(range(63, 127))  # a graph6 code is written in these bytes alone
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_G6 = bytes.maketrans(_BASE64, _G6_CHARS)
_G6_TO_BASE64 = bytes.maketrans(_G6_CHARS, _BASE64)
_BLOCK_CHARS = 1 << 20  # the characters of one block of columns, read or written


def check_size(what: str, n: int, m: int) -> None:
    """Refuse a graph over the caps; an invalid one is left to whatever builds it."""
    if n > GEN_MAX_N:
        raise CapabilityError(f"{what} capped at n={GEN_MAX_N}, got n={n}")
    if n >= 1 and m > GEN_MAX_M:
        raise CapabilityError(f"{what} capped at m={GEN_MAX_M} edges, got m={m}")


def _size_chars(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= _G6_MAX_N:
        return [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    raise CapabilityError(f"graph6 writer supports n <= {_G6_MAX_N}")


def _body_length(n: int) -> int:
    """Characters after the size bytes: n(n-1)/2 bits, 6 to a character."""
    return (n * (n - 1) // 2 + 5) // 6


def to_graph6(g: Graph) -> str:
    """The graph6 code of ``g``, one block of columns of the upper triangle at a time.

    Column j lists x(0, j) .. x(j-1, j), which is bit 0 first of
    ``rows[j] & (2**j - 1)``.  Columns 1 .. c - 1 hold c(c - 1)/2 bits, a
    multiple of 6 whenever c is 1 more than a multiple of 48, so blocks of a
    multiple of 48 columns from column 1 fill whole characters and are
    encoded apart (:func:`_graph6_columns`).  A block is kept near 2^20
    bits, so memory stays linear in the code's length.
    """
    n, rows = g.n, g.rows
    step = 48 * (_BLOCK_CHARS // (48 * n) or 1)
    code = bytes(_size_chars(n)).decode("ascii")
    for first in range(1, n, step):
        code += _graph6_columns(rows, first, min(first + step, n))
    return code


def _graph6_columns(rows: tuple[int, ...], first: int, end: int) -> str:
    """The graph6 characters of columns ``first`` .. ``end - 1``, the last one padded with zeros.

    The columns make one bit string, padded with zeros to a multiple of 24
    bits; base64 cuts it into the same 6-bit groups as graph6, so
    translating its alphabet to bytes 63..126 gives the characters.
    """
    # bin() of the column with a 1 set above its top bit, reversed up to that 1
    bits = "".join([bin(rows[j] & ((1 << j) - 1) | 1 << j)[:2:-1] for j in range(first, end)])
    pad = -len(bits) % 24
    data = (int(bits, 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    chars = binascii.b2a_base64(data, newline=False)[: (len(bits) + 5) // 6]
    return chars.translate(_BASE64_TO_G6).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """The graph of one graph6 code, decoded as :func:`to_graph6` encodes it.

    The body is translated back to base64 and decoded to one bit string, the
    upper triangle in column order: column j holds pairs j(j-1)/2 .. j(j+1)/2
    - 1, and the pair at offset i in it is x(i, j).  A code with at most 8n
    edges is read from its set bits, one step per edge; a denser one by
    blocks of columns in :func:`_dense_rows`, where a step per edge would
    cost more (CS(1500, 700) has 805 000 edges).
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
    pairs = n * (n - 1) // 2  # the bits after these pad the last character
    if bits.count("1", 0, pairs) > 8 * n:
        return Graph(n, tuple(_dense_rows(n, bits)))
    # each set bit k is mirrored into both of its rows; the column j of k is
    # found by moving ``end``, the first pair after column j, forward
    rows = [0] * n
    find = bits.find
    k, j, end = find("1", 0, pairs), 1, 1
    while k >= 0:
        while k >= end:
            j += 1
            end += j
        i = k - end + j
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        k = find("1", k + 1, pairs)
    return Graph(n, tuple(rows))


def _dense_rows(n: int, bits: str) -> list[int]:
    """The rows of a dense code, by string operations on blocks of w columns.

    Column j, reversed, is the part of row j below j.  The part above is the
    transpose: in a block of columns, each padded with zeros to n characters,
    x(i, j) for the block's j sits at every n-th character from i.  So the
    work is O(n^2) characters in O(n^2/w) Python steps, and w keeps a block
    near 2^20 characters, so memory stays linear in the code's length.
    """
    rows = [0] * n
    width = max(1, _BLOCK_CHARS // n)
    for first in range(1, n, width):
        cols = range(first, min(n, first + width))
        columns = [bits[j * (j - 1) // 2 : j * (j + 1) // 2] for j in cols]
        for j, column in zip(cols, columns):
            rows[j] = int(column[::-1], 2)
        block = "".join([column.ljust(n, "0") for column in columns])
        for i in range(cols[-1]):
            above = block[i::n]  # x(i, j) for j in cols, "0" where j <= i
            if "1" in above:
                rows[i] |= int(above[::-1], 2) << first
    return rows


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError(f"bad header {lines[0]!r}") from exc
    check_size("edge-list input", n, m)  # before any row is built
    if len(lines) - 1 != m:
        raise InputError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"bad edge line {ln!r}") from exc
    return from_edge_list(n, edges)


def parse_graph(text: str) -> Graph:
    """Parse either format, deciding by the leading line."""
    first = text.strip().splitlines()[0] if text.strip() else ""
    tokens = first.split()
    if len(tokens) == 2 and all(t.lstrip("-").isdigit() for t in tokens):
        return parse_edge_list(text)
    return parse_graph6(text)
