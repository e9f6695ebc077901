import math
import os
import stat
from itertools import permutations

import networkx as nx
import pytest

from graphirr import __version__
from graphirr.canon import canonical_code
from graphirr.enumeration import (
    EnumerationSpec,
    enumerate_codes,
    enumerate_codes_cached,
    enumerate_graphs,
    enumerate_trees,
    enumerate_unicyclic,
)
from graphirr.errors import CapabilityError, InputError
from graphirr.graph import from_edge_list, is_connected
from graphirr.io import parse_graph6

# Known class counts, used as independent oracles.
CONNECTED_BY_N = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
ALL_BY_N = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
TREES_BY_N = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
UNICYCLIC_BY_N = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}


def burnside_graph_count(n: int, m: int) -> int:
    """Class count of (n, m)-graphs by averaging fixed subsets over S_n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = {p: k for k, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        lengths = []
        for k in range(len(pairs)):
            if seen[k]:
                continue
            length, cur = 0, k
            while not seen[cur]:
                seen[cur] = True
                length += 1
                a, b = pairs[cur]
                a2, b2 = perm[a], perm[b]
                cur = idx[(min(a2, b2), max(a2, b2))]
            lengths.append(length)
        poly = [0] * (m + 1)
        poly[0] = 1
        for length in lengths:
            if length <= m:
                for d in range(m - length, -1, -1):
                    if poly[d]:
                        poly[d + length] += poly[d]
        total += poly[m]
    return total // math.factorial(n)


class TestCounts:
    @pytest.mark.parametrize("n", sorted(CONNECTED_BY_N))
    def test_connected_counts(self, n):
        codes = enumerate_codes(EnumerationSpec(n=n, connected_only=True))
        assert len(codes) == CONNECTED_BY_N[n]

    @pytest.mark.parametrize("n", sorted(ALL_BY_N))
    def test_all_counts(self, n):
        assert len(enumerate_codes(EnumerationSpec(n=n))) == ALL_BY_N[n]

    def test_n3_connected_classes(self):
        graphs = enumerate_graphs(EnumerationSpec(n=3, connected_only=True))
        degrees = sorted(tuple(sorted(g.degrees())) for g in graphs)
        assert degrees == [(1, 1, 2), (2, 2, 2)]  # the path and the triangle

    @pytest.mark.parametrize("m", [3, 5, 8, 12, 15])
    def test_burnside_cross_check_n6(self, m):
        codes = enumerate_codes(EnumerationSpec(n=6, m=m))
        assert len(codes) == burnside_graph_count(6, m)

    def test_gamma_6_12(self):
        codes = enumerate_codes(EnumerationSpec(n=6, m=12, connected_only=True))
        assert len(codes) == 5
        irregular = enumerate_codes(
            EnumerationSpec(n=6, m=12, connected_only=True, irregular_only=True)
        )
        assert len(irregular) == 4
        (regular,) = set(codes) - set(irregular)
        g = parse_graph6(regular)
        # the one regular class is the octahedron K_{2,2,2}
        from graphirr.families import complete_multipartite

        assert canonical_code(g) == canonical_code(complete_multipartite([2, 2, 2]))


class TestTrees:
    @pytest.mark.parametrize("n", sorted(TREES_BY_N))
    def test_counts(self, n):
        assert len(enumerate_trees(n)) == TREES_BY_N[n]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_same_classes_as_networkx(self, n):
        mine = set(enumerate_codes(EnumerationSpec(n=n, population="trees")))
        theirs = set()
        for t in nx.nonisomorphic_trees(n):
            relabeled = nx.convert_node_labels_to_integers(t)
            g = from_edge_list(n, list(relabeled.edges()))
            theirs.add(canonical_code(g))
        assert mine == theirs

    def test_all_are_trees(self):
        for t in enumerate_trees(9):
            assert is_connected(t) and t.m == t.n - 1

    def test_caps(self):
        with pytest.raises(CapabilityError):
            enumerate_trees(13)
        with pytest.raises(InputError):
            enumerate_trees(1)


class TestUnicyclic:
    @pytest.mark.parametrize("n", sorted(UNICYCLIC_BY_N))
    def test_counts(self, n):
        assert len(enumerate_unicyclic(n)) == UNICYCLIC_BY_N[n]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_agrees_with_direct_slice(self, n):
        # independent route: fixed-m enumeration at m = n with connectivity
        direct = set(enumerate_codes(EnumerationSpec(n=n, m=n, connected_only=True)))
        grown = set(enumerate_codes(EnumerationSpec(n=n, population="unicyclic")))
        assert direct == grown

    def test_all_are_unicyclic(self):
        for g in enumerate_unicyclic(8):
            assert is_connected(g) and g.m == g.n

    def test_caps(self):
        with pytest.raises(CapabilityError):
            enumerate_unicyclic(11)
        with pytest.raises(InputError):
            enumerate_unicyclic(2)


class TestCrossPopulationAgreement:
    @pytest.mark.slow
    def test_spanning_slice_equals_trees_n8(self):
        # two unrelated generation routes: subset scan vs leaf augmentation
        scan = enumerate_codes(EnumerationSpec(n=8, m=7, connected_only=True))
        grown = enumerate_codes(EnumerationSpec(n=8, population="trees"))
        assert scan == grown
        assert len(scan) == 23

    def test_dense_slice_n8(self):
        # K_8 minus two edges: the pair is disjoint or shares an endpoint
        codes = enumerate_codes(EnumerationSpec(n=8, m=26, connected_only=True))
        assert len(codes) == 2


class TestDeterminismAndFilters:
    def test_no_duplicate_codes(self):
        codes = enumerate_codes(EnumerationSpec(n=6, m=9, connected_only=True))
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)

    def test_workers_do_not_change_output(self):
        spec = EnumerationSpec(n=6, m=10, connected_only=True)
        assert enumerate_codes(spec, workers=1) == enumerate_codes(spec, workers=3)
        spec = EnumerationSpec(n=5)
        assert enumerate_codes(spec, workers=1) == enumerate_codes(spec, workers=2)

    def test_filters_respected(self):
        for g in enumerate_graphs(
            EnumerationSpec(n=6, m=8, connected_only=True, irregular_only=True)
        ):
            assert is_connected(g) and g.m == 8
            assert len(set(g.degrees())) > 1

    def test_representatives_are_canonical(self):
        for code in enumerate_codes(EnumerationSpec(n=5, connected_only=True)):
            assert canonical_code(parse_graph6(code)) == code

    def test_impossible_m(self):
        with pytest.raises(InputError):
            enumerate_codes(EnumerationSpec(n=4, m=9))

    def test_cap_n(self):
        with pytest.raises(CapabilityError):
            enumerate_codes(EnumerationSpec(n=9))

    def test_connected_below_spanning_empty(self):
        assert enumerate_codes(EnumerationSpec(n=5, m=3, connected_only=True)) == []


class TestCache:
    def test_round_trip(self, tmp_path):
        spec = EnumerationSpec(n=5, connected_only=True)
        first = enumerate_codes_cached(spec, cache_dir=str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        second = enumerate_codes_cached(spec, cache_dir=str(tmp_path))
        assert first == second == enumerate_codes(spec)

    def test_stale_fixed_tmp_name_does_not_block_writes(self, tmp_path):
        # a directory where the old fixed "<path>.tmp" name pointed
        spec = EnumerationSpec(n=4, connected_only=True)
        final = tmp_path / f"{spec.key()}-v{__version__}.g6"
        (tmp_path / (final.name + ".tmp")).mkdir()
        codes = enumerate_codes_cached(spec, cache_dir=str(tmp_path))
        assert codes == enumerate_codes(spec)
        assert final.read_text().split() == codes
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            final.name,
            final.name + ".tmp",
        ]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(final.stat().st_mode) == 0o666 & ~umask

    def test_no_cache_dir_is_plain(self):
        spec = EnumerationSpec(n=4)
        assert enumerate_codes_cached(spec) == enumerate_codes(spec)
