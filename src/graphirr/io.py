"""Graph interchange formats: graph6 and a plain edge-list text format.

graph6 follows the standard byte layout (size bytes offset by 63, then the
upper triangle in column order packed 6 bits per byte) so output is
bit-exact against existing corpora.  The edge-list format is one header
line ``n m`` followed by ``m`` lines ``u v`` with 0-based endpoints.
"""

from __future__ import annotations

from .errors import CapabilityError, InputError
from .graph import Graph, from_edge_list

_G6_MAX_N = 258047  # largest n encodable with the 4-byte size form


def _size_chars(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= _G6_MAX_N:
        return [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    raise CapabilityError(f"graph6 writer supports n <= {_G6_MAX_N}")


def to_graph6(g: Graph) -> str:
    chars = _size_chars(g.n)
    acc = 0
    nbits = 0
    rows = g.rows
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (rows[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                chars.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        chars.append((acc << (6 - nbits)) + 63)
    return "".join(map(chr, chars))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise InputError("graph6 string contains bytes outside 63..126")
    if data[0] == 63:
        if len(data) < 4:
            raise InputError("truncated graph6 size field")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n < 1:
        raise InputError("graph6 graph must have at least one vertex")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise InputError(
            f"graph6 body length {len(body)} does not match n={n} (expected {need})"
        )
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


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
    if n > _G6_MAX_N:
        raise CapabilityError(f"edge-list reader supports n <= {_G6_MAX_N}, got {n}")
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
