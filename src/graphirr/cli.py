"""Command-line interface.

Subcommands::

    compute      measures, classification and the inequality table for a graph
    gen          emit a named family as graph6 or an edge list
    enum         stream isomorphism classes of a population
    verify       run verification suites over enumerated populations
    conjectures  scan the two conjectured inequalities
    extremal     maximisers of S and Var over one (n, m) slice

Exit codes: 0 success, 1 violations found, 2 bad input, 3 size cap exceeded,
141 standard output closed by its reader (128 + SIGPIPE, as a shell reports
a writer killed by that signal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .enumeration import EnumerationSpec, enumerate_codes_cached, range_specs
from .errors import CapabilityError, InputError
from .families import (
    complete,
    complete_multipartite,
    complete_split,
    cycle,
    named,
    path,
    recognize,
    star,
    wheel,
)
from .graph import Graph
from .io import format_edge_list, parse_graph, parse_graph6, to_graph6
from .measures import bound_report, context
from .serialize import (
    bound_record_json,
    fraction_decimal,
    fraction_text,
    measure_set_json,
    report_json,
)
from .spectral import two_walk_params, variance_spectral_identity
from .verify import (
    SUITE_IDS,
    check_deviation_conjecture,
    check_omega_conjecture,
    extremal_search,
    max_deviation_split_k,
    run_all_suites,
    run_suite,
    split_deviation_argmax,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_BROKEN_PIPE = 141


def _fmt(q) -> str:
    text = fraction_text(q)
    if q.denominator == 1:
        return text
    return f"{text} ({fraction_decimal(q)})"


def _read_input(arg: str) -> Graph:
    if arg == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {arg}: {exc}") from None
    _check_edge_list_size(text)
    return parse_graph(text)


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _read_input(args.input)
    ctx = context(g)
    st, cls, ms = ctx.stats, ctx.cls, ctx.ms
    bounds = bound_report(g, ctx)
    spectral = None
    if cls.is_connected and not cls.is_regular and g.n >= 2:
        params = two_walk_params(g, ctx)
        if params is not None:
            ident = variance_spectral_identity(g, ctx, params)
            spectral = (params, ident)

    if args.json:
        doc = {
            "n": g.n,
            "m": st.edge_count,
            "degrees": list(st.degrees),
            "degree_set": list(st.degree_set),
            "histogram": {str(d): c for d, c in sorted(st.histogram.items())},
            "universal_count": st.universal_count,
            "classification": {
                "connected": cls.is_connected,
                "regular": cls.is_regular,
                "degree_class": cls.degree_class,
                "bidegreed": cls.is_bidegreed,
                "balanced_bidegreed": cls.is_balanced_bidegreed,
                "dominating": cls.is_dominating,
                "tree": cls.is_tree,
                "unicyclic": cls.is_unicyclic,
                "cyclomatic": cls.cyclomatic,
                "complete_split_k": cls.complete_split_k,
            },
            "measures": measure_set_json(ms),
            "bounds": [bound_record_json(r) for r in bounds],
            "two_walk": None
            if spectral is None
            else {
                "a": spectral[0].a,
                "b": spectral[0].b,
                "var_via_params": {
                    "num": spectral[1].var_via_params.numerator,
                    "den": spectral[1].var_via_params.denominator,
                },
                "matches": spectral[1].matches,
            },
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK

    print(f"n={g.n} m={st.edge_count}")
    print("degrees:", " ".join(map(str, sorted(st.degrees, reverse=True))))
    hist = " ".join(f"{d}:{c}" for d, c in sorted(st.histogram.items()))
    degree_set = ", ".join(map(str, st.degree_set))
    print(f"degree_set: {{{degree_set}}}  counts: {hist}  q={st.universal_count}")
    labels = []
    if cls.is_regular:
        labels.append("regular")
    else:
        labels.append(f"{cls.degree_class}-degreed")
    if cls.is_bidegreed:
        labels.append("bidegreed")
    if cls.is_balanced_bidegreed:
        labels.append("balanced")
    if cls.is_dominating:
        labels.append("dominating")
    if cls.is_tree:
        labels.append("tree")
    if cls.is_unicyclic:
        labels.append("unicyclic")
    if cls.complete_split_k is not None:
        labels.append(f"complete split k={cls.complete_split_k}")
    print("classification:", "; ".join(labels))
    if cls.is_connected:
        print(f"connected: yes  c={cls.cyclomatic}")
    else:
        print("connected: no")
    print(f"M1={_fmt(ms.m1)}")
    print(f"S={_fmt(ms.s)}")
    print(f"Var={_fmt(ms.var)}")
    print(f"IRD={_fmt(ms.ird)}")
    print(f"IRR={_fmt(ms.irr)}")
    if ms.omega is None:
        print("Omega: undefined")
    else:
        print(f"Omega={_fmt(ms.omega)}")
    if spectral is not None:
        params, ident = spectral
        print(f"two_walk: a={params.a} b={params.b}")
        status = "matches Var" if ident.matches else "DOES NOT match Var"
        print(f"two_walk variance: {_fmt(ident.var_via_params)} ({status})")
    print("bounds:")
    for rec in bounds:
        if rec.agreement == "not-applicable":
            print(f"  {rec.bound_id}: not applicable")
            continue
        mark = "=" if rec.is_equality else ("ok" if rec.holds else "VIOLATED")
        print(
            f"  {rec.bound_id}: lhs={fraction_text(rec.lhs)} rhs={fraction_text(rec.rhs)}"
            f" [{mark}] ({rec.agreement})"
        )
    return EXIT_OK


# family -> (parameter count, (n, m) of the graph, constructor)
_FAMILIES = {
    "path": (1, lambda n: (n, n - 1), path),
    "cycle": (1, lambda n: (n, n), cycle),
    "star": (1, lambda n: (n, n - 1), star),
    "complete": (1, lambda n: (n, n * (n - 1) // 2), complete),
    "wheel": (1, lambda n: (n, 2 * (n - 1)), wheel),
    "cs": (2, lambda n, k: (n, k * (k - 1) // 2 + k * (n - k)), complete_split),
}
# Checked before anything is built, by `gen` and for an edge list given to
# `compute`.  A graph keeps one n-bit row per vertex, its graph6 text has
# n^2/12 characters and its edge list one tuple per edge: at either cap `gen`
# peaks at about 100 MB.  A graph6 input is held to its own size limit only,
# as its text already grows with n^2.
GEN_MAX_N = 5_000
GEN_MAX_M = 500_000


def _int_params(params: list[str]) -> list[int]:
    try:
        return [int(p) for p in params]
    except ValueError:
        raise InputError(f"family parameters must be integers, got {params}") from None


def _check_size(what: str, n: int, m: int) -> None:
    """Refuse a graph over the caps; an invalid one is left to whatever builds it."""
    if n > GEN_MAX_N:
        raise CapabilityError(f"{what} capped at n={GEN_MAX_N}, got n={n}")
    if n >= 1 and m > GEN_MAX_M:
        raise CapabilityError(f"{what} capped at m={GEN_MAX_M} edges, got m={m}")


def _check_edge_list_size(text: str) -> None:
    """Hold an edge-list header to the caps before ``parse_graph`` builds any row."""
    lines = text.strip().splitlines()
    tokens = lines[0].split() if lines else []
    if len(tokens) == 2 and all(t.isdecimal() for t in tokens):
        _check_size("edge-list input", int(tokens[0]), int(tokens[1]))


def _cmd_gen(args: argparse.Namespace) -> int:
    fam = args.family
    if fam == "named":
        if len(args.params) != 1:
            raise InputError("usage: gen named <name>")
        g = named(args.params[0])
    elif fam == "multipartite":
        sizes = _int_params(args.params)
        n = sum(sizes)
        _check_size("gen", n, (n * n - sum(s * s for s in sizes)) // 2)
        g = complete_multipartite(sizes)
    elif fam in _FAMILIES:
        arity, size, build = _FAMILIES[fam]
        if len(args.params) != arity:
            raise InputError(f"family {fam!r} takes {arity} integer parameter(s)")
        params = _int_params(args.params)
        _check_size("gen", *size(*params))
        g = build(*params)
    else:
        raise InputError(f"unknown family {fam!r}")
    if args.edges:
        sys.stdout.write(format_edge_list(g))
    else:
        print(to_graph6(g))
    return EXIT_OK


def _enum_spec(args: argparse.Namespace) -> EnumerationSpec:
    population = "all"
    if args.trees:
        population = "trees"
    elif args.unicyclic:
        population = "unicyclic"
    return EnumerationSpec(
        n=args.n,
        m=args.m,
        connected_only=args.connected,
        irregular_only=args.irregular,
        population=population,
    )


def _cmd_enum(args: argparse.Namespace) -> int:
    spec = _enum_spec(args)
    codes = enumerate_codes_cached(spec, workers=args.workers, cache_dir=args.cache_dir)
    if args.count:
        print(len(codes))
    else:
        for code in codes:
            print(code)
    return EXIT_OK


def _emit_reports(reports, out: Optional[str] = None, csv: Optional[str] = None) -> int:
    for rep in reports:
        print(
            f"suite={rep.suite_id} checked={rep.graphs_checked}"
            f" violations={len(rep.violations)} findings={len(rep.findings)}"
            f" equalities={len(rep.equalities)} ({rep.elapsed:.2f}s)"
        )
        for v in rep.violations[:10]:
            print(f"  VIOLATION {v.check} on {v.graph}: lhs={v.lhs} rhs={v.rhs} {v.note}")
        for f in rep.findings[:10]:
            print(f"  finding {f.check} on {f.graph}: {f.note}")
        for e in rep.equalities[:10]:
            print(f"  equality {e.check} on {e.graph}")
        if len(rep.equalities) > 10:
            print(f"  ... {len(rep.equalities) - 10} further equality cases")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            docs = [report_json(r, include_timing=False) for r in reports]
            json.dump(docs, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
    if csv:
        lines = ["suite,checked,violations,findings,equalities"]
        lines += [
            f"{r.suite_id},{r.graphs_checked},{len(r.violations)},"
            f"{len(r.findings)},{len(r.equalities)}"
            for r in reports
        ]
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {csv}")
    return EXIT_VIOLATIONS if any(r.violations for r in reports) else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.population == "graphs":
        specs = range_specs("all", args.max_n, connected_only=args.connected)
    else:
        specs = range_specs(args.population, args.max_n)
    if args.suite == "all":
        reports = run_all_suites(specs, workers=args.workers, cache_dir=args.cache_dir)
    else:
        reports = [
            run_suite(specs, args.suite, workers=args.workers, cache_dir=args.cache_dir)
        ]
    return _emit_reports(reports, args.out, args.csv)


def _cmd_conjectures(args: argparse.Namespace) -> int:
    specs = range_specs("all", args.max_n, connected_only=not args.include_disconnected)
    reports = [
        check_deviation_conjecture(specs, workers=args.workers, cache_dir=args.cache_dir),
        check_omega_conjecture(specs, workers=args.workers, cache_dir=args.cache_dir),
    ]
    return _emit_reports(reports, args.out)


def _cmd_extremal(args: argparse.Namespace) -> int:
    result = extremal_search(args.n, args.m, workers=args.workers, cache_dir=args.cache_dir)

    def _names(codes):
        out = []
        for code in codes:
            name = recognize(parse_graph6(code))
            out.append(name if name else code)
        return ", ".join(out)

    print(f"n={result.n} m={result.m}")
    print(f"max S = {_fmt(result.max_s)} attained by: {_names(result.max_s_graphs)}")
    print(f"max Var = {_fmt(result.max_var)} attained by: {_names(result.max_var_graphs)}")
    print(f"coincide: {'true' if result.coincide else 'false'}")
    if args.out:
        doc = {
            "n": result.n,
            "m": result.m,
            "max_s": fraction_text(result.max_s),
            "max_var": fraction_text(result.max_var),
            "max_s_graphs": list(result.max_s_graphs),
            "max_var_graphs": list(result.max_var_graphs),
            "coincide": result.coincide,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_split_k(args: argparse.Namespace) -> int:
    rule = max_deviation_split_k(args.n)
    brute = split_deviation_argmax(args.n)
    print(f"n={args.n} rule k={list(rule)} brute-force argmax={list(brute)}")
    return EXIT_OK if rule == brute else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphirr",
        description="Exact graph irregularity measures, verification and search",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="measures and checks for one graph")
    p.add_argument("input", help="path to a graph6 or edge-list file, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("gen", help="emit a graph family member")
    p.add_argument(
        "family",
        choices=sorted(_FAMILIES) + ["multipartite", "named"],
    )
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--edges", action="store_true", help="edge-list output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("enum", help="stream isomorphism classes as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--irregular", action="store_true")
    p.add_argument("--trees", action="store_true")
    p.add_argument("--unicyclic", action="store_true")
    p.add_argument("--count", action="store_true", help="print the class count only")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="all or one of: " + " ".join(SUITE_IDS))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--population", choices=["graphs", "trees", "unicyclic"], default="graphs"
    )
    p.add_argument(
        "--connected",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="restrict the graph population to connected graphs",
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="write a CSV summary here")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("conjectures", help="scan the conjectured inequalities")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--include-disconnected", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=_cmd_conjectures)

    p = sub.add_parser("extremal", help="S and Var maximisers over one (n, m) slice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("split-k", help="rule vs brute force for the best CS clique size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_split_k)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to the null device
        # so the interpreter's final flush cannot raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
