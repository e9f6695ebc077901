import logging
import math
import os
import random
import stat
from collections import Counter
from functools import lru_cache
from itertools import permutations

import networkx as nx
import pytest

from graphirr import __version__, enumeration
from graphirr.canon import canonical_code
from graphirr.enumeration import (
    EnumerationSpec,
    enumerate_codes_cached,
    enumerate_range,
    range_specs,
)
from graphirr.errors import CapabilityError, InputError
from graphirr.graph import from_edge_list, is_connected
from graphirr.io import parse_graph6

from conftest import permute, record_canonicalisations

# Known class counts, used as independent oracles (OEIS A001349, A000088).
CONNECTED_BY_N = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_BY_N = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
TREES_BY_N = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
UNICYCLIC_BY_N = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}


def burnside_graph_count(n: int, m: int) -> int:
    """Class count of (n, m)-graphs by averaging fixed subsets over S_n."""
    return _burnside_counts(n)[m]


@lru_cache(maxsize=None)
def _burnside_counts(n: int) -> tuple[int, ...]:
    """Class counts of (n, m)-graphs for every m, one pass over S_n."""
    top = n * (n - 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = {p: k for k, p in enumerate(pairs)}
    totals = [0] * (top + 1)
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
        poly = [0] * (top + 1)
        poly[0] = 1
        for length in lengths:
            for d in range(top - length, -1, -1):
                if poly[d]:
                    poly[d + length] += poly[d]
        totals = [t + p for t, p in zip(totals, poly)]
    return tuple(t // math.factorial(n) for t in totals)


@pytest.fixture(scope="module")
def atlas_codes() -> dict[int, list[str]]:
    """Canonical codes of networkx's graph atlas (every graph on <= 7 vertices)."""
    by_n: dict[int, list[str]] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes():
            g = from_edge_list(h.number_of_nodes(), list(h.edges()))
            by_n.setdefault(g.n, []).append(canonical_code(g))
    return by_n


class TestCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_counts(self, n):
        codes = enumerate_range([EnumerationSpec(n=n, connected_only=True)])[0]
        assert len(codes) == CONNECTED_BY_N[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_counts(self, n):
        assert len(enumerate_range([EnumerationSpec(n=n)])[0]) == ALL_BY_N[n]

    @pytest.mark.slow
    def test_n8_counts(self, all_codes_8, connected_codes_8):
        assert len(all_codes_8) == ALL_BY_N[8]
        assert len(connected_codes_8) == CONNECTED_BY_N[8]

    @pytest.mark.slow
    def test_burnside_cross_check_n8(self, all_codes_8):
        per_m = Counter(parse_graph6(code).m for code in all_codes_8)
        assert [per_m[m] for m in range(29)] == [burnside_graph_count(8, m) for m in range(29)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_classes_as_graph_atlas(self, n, atlas_codes):
        assert enumerate_range([EnumerationSpec(n=n)])[0] == sorted(atlas_codes[n])

    @pytest.mark.parametrize(
        "n, m, connected, count",
        [
            (1, 0, False, 1),
            (1, 0, True, 1),
            (2, 0, False, 1),
            (2, 0, True, 0),
            (2, 1, False, 1),
            (2, 1, True, 1),
        ],
    )
    def test_one_and_two_vertices(self, n, m, connected, count):
        spec = EnumerationSpec(n=n, m=m, connected_only=connected)
        assert len(enumerate_range([spec])[0]) == count

    def test_n3_connected_classes(self):
        codes = enumerate_range([EnumerationSpec(n=3, connected_only=True)])[0]
        degrees = sorted(tuple(sorted(parse_graph6(c).degrees())) for c in codes)
        assert degrees == [(1, 1, 2), (2, 2, 2)]  # the path and the triangle

    @pytest.mark.parametrize("m", [3, 5, 8, 12, 15])
    def test_burnside_cross_check_n6(self, m):
        codes = enumerate_range([EnumerationSpec(n=6, m=m)])[0]
        assert len(codes) == burnside_graph_count(6, m)

    @pytest.mark.parametrize("m", range(22))
    def test_burnside_cross_check_n7(self, m):
        codes = enumerate_range([EnumerationSpec(n=7, m=m)])[0]
        assert len(codes) == burnside_graph_count(7, m)

    def test_gamma_6_12(self):
        codes = enumerate_range([EnumerationSpec(n=6, m=12, connected_only=True)])[0]
        assert len(codes) == 5
        irregular = enumerate_range(
            [EnumerationSpec(n=6, m=12, connected_only=True, irregular_only=True)]
        )[0]
        assert len(irregular) == 4
        (regular,) = set(codes) - set(irregular)
        g = parse_graph6(regular)
        # the one regular class is the octahedron K_{2,2,2}
        from graphirr.families import complete_multipartite

        assert canonical_code(g) == canonical_code(complete_multipartite([2, 2, 2]))


class TestTrees:
    @pytest.mark.parametrize("n", sorted(TREES_BY_N))
    def test_counts(self, n):
        spec = EnumerationSpec(n=n, population="trees")
        assert len(enumerate_range([spec])[0]) == TREES_BY_N[n]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_same_classes_as_networkx(self, n):
        mine = set(enumerate_range([EnumerationSpec(n=n, population="trees")])[0])
        theirs = set()
        for t in nx.nonisomorphic_trees(n):
            relabeled = nx.convert_node_labels_to_integers(t)
            g = from_edge_list(n, list(relabeled.edges()))
            theirs.add(canonical_code(g))
        assert mine == theirs

    def test_all_are_trees(self):
        for code in enumerate_range([EnumerationSpec(n=9, population="trees")])[0]:
            t = parse_graph6(code)
            assert is_connected(t) and t.m == t.n - 1

    def test_caps(self):
        with pytest.raises(CapabilityError):
            enumerate_range([EnumerationSpec(n=13, population="trees")])
        with pytest.raises(InputError):
            enumerate_range([EnumerationSpec(n=1, population="trees")])


class TestUnicyclic:
    @pytest.mark.parametrize("n", sorted(UNICYCLIC_BY_N))
    def test_counts(self, n):
        spec = EnumerationSpec(n=n, population="unicyclic")
        assert len(enumerate_range([spec])[0]) == UNICYCLIC_BY_N[n]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_agrees_with_direct_slice(self, n):
        # independent route: fixed-m enumeration at m = n with connectivity
        direct = set(enumerate_range([EnumerationSpec(n=n, m=n, connected_only=True)])[0])
        grown = set(enumerate_range([EnumerationSpec(n=n, population="unicyclic")])[0])
        assert direct == grown

    def test_all_are_unicyclic(self):
        for code in enumerate_range([EnumerationSpec(n=8, population="unicyclic")])[0]:
            g = parse_graph6(code)
            assert is_connected(g) and g.m == g.n

    def test_caps(self):
        with pytest.raises(CapabilityError):
            enumerate_range([EnumerationSpec(n=11, population="unicyclic")])
        with pytest.raises(InputError):
            enumerate_range([EnumerationSpec(n=2, population="unicyclic")])


class TestRange:
    @pytest.mark.parametrize(
        "population, max_n, connected, calls",
        [
            ("trees", 12, False, 1296),
            ("unicyclic", 10, False, 1274),
            ("all", 6, True, 166),
            ("all", 7, False, 1306),
        ],
    )
    def test_one_growth_serves_the_range(self, monkeypatch, population, max_n, connected, calls):
        specs = range_specs(population, max_n, connected_only=connected)
        counted = record_canonicalisations(monkeypatch)
        lists = enumerate_range(specs)
        assert len(counted) == calls
        whole = CONNECTED_BY_N if connected else ALL_BY_N
        oracle = {"trees": TREES_BY_N, "unicyclic": UNICYCLIC_BY_N, "all": whole}
        assert [len(codes) for codes in lists] == [oracle[population][s.n] for s in specs]

    @pytest.mark.parametrize(
        "population, max_n, connected, total",
        [
            ("trees", 12, False, 1511),
            ("unicyclic", 10, False, 782),
            ("all", 6, True, 111),
            ("all", 8, False, 2521),
        ],
    )
    def test_generator_totals(self, monkeypatch, population, max_n, connected, total):
        """The generators the parents below the last size carry, one per twin set aside."""
        generators: list[list[int]] = []
        record_canonicalisations(monkeypatch, generators)
        enumerate_range(range_specs(population, max_n, connected_only=connected))
        assert len(generators) == total

    def test_fixed_m_grows_only_its_edge_window(self, monkeypatch):
        generators: list[list[int]] = []
        counted = record_canonicalisations(monkeypatch, generators)
        codes = enumerate_range([EnumerationSpec(n=7, m=11, connected_only=True)])[0]
        assert len(counted) == 239
        assert len(generators) == 202
        assert len(codes) == 138

    @pytest.mark.parametrize(
        "fields, max_n",
        [
            ({}, 6),
            ({"connected_only": True}, 6),
            ({"irregular_only": True}, 6),
            ({"connected_only": True, "irregular_only": True}, 6),
            ({"m": 5}, 6),
            ({"m": 6, "connected_only": True, "irregular_only": True}, 6),
            ({"population": "trees"}, 9),
            ({"population": "trees", "irregular_only": True}, 9),
            ({"population": "unicyclic"}, 8),
            ({"population": "unicyclic", "connected_only": True}, 8),
            ({"population": "unicyclic", "irregular_only": True}, 8),
            # m = n at n=6 and m = n + 1 at n=5
            ({"population": "unicyclic", "m": 6}, 8),
            ({"population": "unicyclic", "m": 6, "irregular_only": True}, 8),
        ],
    )
    def test_range_equals_each_spec_alone(self, fields, max_n):
        low = {"all": 1, "trees": 2, "unicyclic": 3}[fields.get("population", "all")]
        specs = [EnumerationSpec(n=n, **fields) for n in range(low, max_n + 1)]
        specs = [s for s in specs if s.m is None or s.m <= s.n * (s.n - 1) // 2]
        lists = enumerate_range(specs)
        assert lists == [enumerate_range([s])[0] for s in specs]
        assert enumerate_range(specs, workers=3) == lists

    def test_lists_follow_the_input_order(self):
        specs = [
            EnumerationSpec(n=5),
            EnumerationSpec(n=4, population="trees"),
            EnumerationSpec(n=3),
            EnumerationSpec(n=5),
            EnumerationSpec(n=4, population="unicyclic"),
        ]
        assert enumerate_range(specs) == [enumerate_range([s])[0] for s in specs]

    def test_only_missing_levels_grow(self, tmp_path, monkeypatch):
        specs = range_specs("trees", 10)
        single, ranged = tmp_path / "single", tmp_path / "range"
        expected = [enumerate_codes_cached(s, cache_dir=str(single)) for s in specs]
        ranged.mkdir()
        kept = {}
        for n in (5, 10):
            name = f"{EnumerationSpec(n=n, population='trees').key()}-v{__version__}.g6"
            (ranged / name).write_bytes((single / name).read_bytes())
            kept[name] = (ranged / name).stat().st_ino
        counted = record_canonicalisations(monkeypatch)
        enumerate_range(specs[:-1])  # one growth up to n=9, the largest missing n
        to_nine = len(counted)
        counted.clear()
        assert enumerate_range(specs, cache_dir=str(ranged)) == expected
        assert len(counted) == to_nine
        assert {name: (ranged / name).stat().st_ino for name in kept} == kept
        assert sorted(p.name for p in ranged.iterdir()) == sorted(p.name for p in single.iterdir())
        for path in single.iterdir():
            assert (ranged / path.name).read_bytes() == path.read_bytes()

    def test_empty_range_refused(self):
        with pytest.raises(InputError, match="smallest order is 3"):
            range_specs("unicyclic", 2)


def most_walks_reference(rows: list[int]) -> bool:
    """The 2-walk test as the sum over u of |N(v) & N(u)|, one popcount per pair."""
    least = rows[-1].bit_count()
    walks = [sum([(r & s).bit_count() for s in rows]) for r in rows if r.bit_count() == least]
    return walks[-1] == max(walks)


class TestMostWalks:
    def test_agrees_with_common_neighbour_counts(self):
        rng = random.Random(27)
        verdicts = Counter()
        for _ in range(3000):
            n = rng.randint(2, 12)
            p = rng.choice([0.15, 0.3, 0.5, 0.8])
            g = from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            # give a minimum-degree vertex the largest key, so it comes last
            degrees = g.degrees()
            last = rng.choice([v for v in range(n) if degrees[v] == min(degrees)])
            rows = list(permute(g, [n if v == last else v for v in range(n)]).rows)
            assert rows[-1].bit_count() == min(degrees)
            verdict = enumeration._most_walks(rows)
            assert verdict == most_walks_reference(rows), rows
            verdicts[verdict] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100


class TestCrossPopulationAgreement:
    @pytest.mark.slow
    def test_spanning_slice_equals_trees_n8(self):
        # two routes through the generator: connected 7-edge children of the
        # whole n=7 population vs single-leaf children of the n=7 trees
        spanning = enumerate_range([EnumerationSpec(n=8, m=7, connected_only=True)])[0]
        grown = enumerate_range([EnumerationSpec(n=8, population="trees")])[0]
        assert spanning == grown
        assert len(spanning) == 23

    def test_dense_slice_n8(self):
        # K_8 minus two edges: the pair is disjoint or shares an endpoint
        codes = enumerate_range([EnumerationSpec(n=8, m=26, connected_only=True)])[0]
        assert len(codes) == 2


class TestDeterminismAndFilters:
    def test_no_duplicate_codes(self):
        codes = enumerate_range([EnumerationSpec(n=6, m=9, connected_only=True)])[0]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)

    def test_workers_do_not_change_output(self):
        for spec, workers in [
            (EnumerationSpec(n=6, m=10, connected_only=True), 3),
            (EnumerationSpec(n=7, m=11, connected_only=True), 2),
            (EnumerationSpec(n=7, m=11, connected_only=True), 3),
            (EnumerationSpec(n=5), 2),
            (EnumerationSpec(n=7, population="trees"), 2),
            (EnumerationSpec(n=6, population="unicyclic"), 2),
            # one vertex, and more workers than last-size representatives
            (EnumerationSpec(n=1), 3),
            (EnumerationSpec(n=1, m=0, connected_only=True), 3),
            (EnumerationSpec(n=2), 3),
            (EnumerationSpec(n=2, connected_only=True), 3),
            (EnumerationSpec(n=2, m=0), 3),
            (EnumerationSpec(n=2, m=1, connected_only=True), 3),
        ]:
            assert enumerate_range([spec]) == enumerate_range([spec], workers)

    def test_filters_respected(self):
        spec = EnumerationSpec(n=6, m=8, connected_only=True, irregular_only=True)
        for code in enumerate_range([spec])[0]:
            g = parse_graph6(code)
            assert is_connected(g) and g.m == 8
            assert len(set(g.degrees())) > 1

    def test_representatives_are_canonical(self):
        for code in enumerate_range([EnumerationSpec(n=5, connected_only=True)])[0]:
            assert canonical_code(parse_graph6(code)) == code

    def test_impossible_m(self):
        with pytest.raises(InputError):
            enumerate_range([EnumerationSpec(n=4, m=9)])

    def test_tree_and_unicyclic_impossible_m_grow_nothing(self, monkeypatch, tmp_path):
        calls = record_canonicalisations(monkeypatch)
        specs = [
            EnumerationSpec(n=10, m=5, population="unicyclic"),
            EnumerationSpec(n=12, m=12, population="trees"),
        ]
        assert enumerate_range(specs, cache_dir=str(tmp_path)) == [[], []]
        assert calls == []
        # the possible m of each population still grows
        possible = [
            EnumerationSpec(n=6, m=6, population="unicyclic"),
            EnumerationSpec(n=6, m=5, population="trees"),
        ]
        assert [len(codes) for codes in enumerate_range(possible)] == [13, 6]
        assert calls

    def test_cap_n(self):
        with pytest.raises(CapabilityError):
            enumerate_range([EnumerationSpec(n=9)])

    def test_unknown_population(self, tmp_path):
        with pytest.raises(InputError, match="unknown population 'forests'"):
            enumerate_range([EnumerationSpec(n=4, population="forests")], cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_describe_names_every_filter(self):
        assert FILTERED.describe() == "isomorphism classes, n=6, m=7, connected, irregular"

    def test_connected_below_spanning_empty(self):
        assert enumerate_range([EnumerationSpec(n=5, m=3, connected_only=True)])[0] == []


SLICE_7_11 = EnumerationSpec(n=7, m=11, connected_only=True)


class TestWorkerProcesses:
    def test_graph6_written_once_per_output_class(self, monkeypatch):
        calls = [0]
        real = enumeration.to_graph6

        def counted(g):
            calls[0] += 1
            return real(g)

        monkeypatch.setattr(enumeration, "to_graph6", counted)
        assert len(enumerate_range([SLICE_7_11])[0]) == calls[0] == 138
        calls[0] = 0
        specs = range_specs("all", 6, connected_only=True)
        assert sum(map(len, enumerate_range(specs))) == calls[0] == 143

    def test_serial_without_fork(self, monkeypatch):
        # any worker count grows in this process: forking fails the test
        def refuse():
            raise AssertionError("the growth started a process")

        specs = [SLICE_7_11, EnumerationSpec(n=6), EnumerationSpec(n=6, population="unicyclic")]
        expected = enumerate_range(specs)
        monkeypatch.setattr(os, "fork", refuse)
        assert enumerate_range(specs, workers=4) == expected


#: a fixed-m, irregular-only spec: its cache file has no known class count
FILTERED = EnumerationSpec(n=6, m=7, connected_only=True, irregular_only=True)


def stored_codes(path, spec: EnumerationSpec) -> list[str]:
    """The codes of a cache file, after checking that its header names ``spec`` and their count."""
    header, *codes = path.read_text().splitlines()
    assert header.startswith(f"#{spec.key()} {len(codes)} ")
    return codes


class TestCache:
    def test_round_trip(self, tmp_path, caplog):
        # a whole-range spec, checked against its class count on read, and a
        # filtered one, which has no known count
        for spec, name in (
            (EnumerationSpec(n=5, connected_only=True), "all-n5-conn"),
            (FILTERED, "all-n6-m7-conn-irr"),
        ):
            cache = tmp_path / name
            first = enumerate_codes_cached(spec, cache_dir=str(cache))
            assert [f.name for f in cache.iterdir()] == [f"{name}-v{__version__}.g6"]
            with caplog.at_level(logging.WARNING, logger="graphirr.enumeration"):
                second = enumerate_codes_cached(spec, cache_dir=str(cache))
            assert "recomputing" not in caplog.text  # the file was read back
            assert first == second == enumerate_range([spec])[0]

    def test_stale_fixed_tmp_name_does_not_block_writes(self, tmp_path):
        # a directory where the old fixed "<path>.tmp" name pointed
        spec = EnumerationSpec(n=4, connected_only=True)
        final = tmp_path / f"{spec.key()}-v{__version__}.g6"
        (tmp_path / (final.name + ".tmp")).mkdir()
        codes = enumerate_codes_cached(spec, cache_dir=str(tmp_path))
        assert codes == enumerate_range([spec])[0]
        assert stored_codes(final, spec) == codes
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            final.name,
            final.name + ".tmp",
        ]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(final.stat().st_mode) == 0o666 & ~umask

    def test_failed_write_removes_its_temporary_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            enumeration._write_cache(EnumerationSpec(n=4), str(tmp_path), ["\u00e9"])
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_dir_is_plain(self):
        spec = EnumerationSpec(n=4)
        assert enumerate_codes_cached(spec) == enumerate_range([spec])[0]

    def test_environment_names_no_cache(self, monkeypatch, tmp_path):
        # only the CLI reads $GRAPHIRR_CACHE_DIR, as the default of --cache-dir
        monkeypatch.setenv("GRAPHIRR_CACHE_DIR", str(tmp_path))
        enumerate_range([EnumerationSpec(n=4)])
        assert list(tmp_path.iterdir()) == []

    def test_workers_checked_on_a_warm_cache(self, tmp_path):
        spec = EnumerationSpec(n=4)
        enumerate_codes_cached(spec, cache_dir=str(tmp_path))
        with pytest.raises(InputError):
            enumerate_codes_cached(spec, workers=0, cache_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda codes, other: "\n".join(codes)[:-2],  # truncated mid-line
            lambda codes, other: "\n".join(other) + "\n",  # codes of another n
            lambda codes, other: "\n".join(reversed(codes)) + "\n",  # unsorted
            lambda codes, other: "\n".join(codes) + "\n\u00e9\n",  # not ASCII
        ],
        ids=["truncated", "other-n", "unsorted", "non-ascii"],
    )
    def test_damaged_file_is_recomputed(self, tmp_path, caplog, damage):
        n5, n6 = (EnumerationSpec(n=k, connected_only=True) for k in (5, 6))
        for spec, other_spec in ((n5, n6), (FILTERED, n5)):
            codes = enumerate_range([spec])[0]
            other = enumerate_range([other_spec])[0]
            path = tmp_path / f"{spec.key()}-v{__version__}.g6"
            path.write_text(damage(codes, other), encoding="utf-8")
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="graphirr.enumeration"):
                assert enumerate_codes_cached(spec, cache_dir=str(tmp_path)) == codes
            assert "recomputing" in caplog.text
            assert stored_codes(path, spec) == codes

    @pytest.mark.parametrize(
        "spec",
        [
            EnumerationSpec(n=10, population="trees"),
            EnumerationSpec(n=8, population="unicyclic"),
            EnumerationSpec(n=6, connected_only=True),
            EnumerationSpec(n=5),
        ],
        ids=lambda spec: spec.key(),
    )
    def test_file_cut_at_a_line_boundary_is_recomputed(self, tmp_path, caplog, spec):
        codes = enumerate_range([spec])[0]
        path = tmp_path / f"{spec.key()}-v{__version__}.g6"
        path.write_text("\n".join(codes[:-1]) + "\n")
        with caplog.at_level(logging.WARNING, logger="graphirr.enumeration"):
            assert enumerate_codes_cached(spec, cache_dir=str(tmp_path)) == codes
        assert "recomputing" in caplog.text
        assert stored_codes(path, spec) == codes

    @pytest.mark.parametrize(
        "damage",
        [
            lambda header, codes: [header] + codes[:-20],  # the header kept
            lambda header, codes: [header.replace(" 138 ", " 118 ")] + codes[:-20],
            lambda header, codes: codes,  # written before the header existed
            lambda header, codes: [header.replace("-m11-", "-m12-")] + codes,
        ],
        ids=["cut", "cut-recounted", "no-header", "other-spec-header"],
    )
    def test_file_without_its_own_header_is_recomputed(self, tmp_path, caplog, damage):
        # a fixed-m slice has no known class count: only the header shows the damage
        path = tmp_path / f"{SLICE_7_11.key()}-v{__version__}.g6"
        codes = enumerate_codes_cached(SLICE_7_11, cache_dir=str(tmp_path))
        header = path.read_text().splitlines()[0]
        assert len(codes) == 138 and header.startswith(f"#{SLICE_7_11.key()} 138 ")
        path.write_text("\n".join(damage(header, codes)) + "\n")
        with caplog.at_level(logging.WARNING, logger="graphirr.enumeration"):
            assert enumerate_codes_cached(SLICE_7_11, cache_dir=str(tmp_path)) == codes
        assert "recomputing" in caplog.text
        assert path.read_text().splitlines() == [header] + codes

    def test_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        # the kernel applies the umask when the file is created; nothing reads or sets it
        umask = os.umask(0)
        os.umask(umask)

        def refuse(mask):
            raise AssertionError("the cache write changed the umask")

        monkeypatch.setattr(os, "umask", refuse)
        spec = EnumerationSpec(n=4)
        codes = enumerate_codes_cached(spec, cache_dir=str(tmp_path))
        (final,) = tmp_path.iterdir()
        assert stored_codes(final, spec) == codes
        assert stat.S_IMODE(final.stat().st_mode) == 0o666 & ~umask

    def test_known_counts_match_the_oracles(self):
        for key, oracle in [
            ("all", ALL_BY_N),
            ("connected", CONNECTED_BY_N),
            ("trees", TREES_BY_N),
            ("unicyclic", UNICYCLIC_BY_N),
        ]:
            table = enumeration._CLASS_COUNTS[key]
            assert [table[n - 1] for n in oracle] == list(oracle.values())
            assert len(table) == max(oracle)  # every n up to the population's cap
