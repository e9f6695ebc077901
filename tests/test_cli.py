import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphirr import __version__, cli, measures, verify
from graphirr.canon import canonical_code
from graphirr.cli import CACHE_ENV, main
from graphirr.families import named, star, wheel
from graphirr.io import format_edge_list, parse_graph6, to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_grotzsch_edge_list(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(format_edge_list(named("grotzsch")))
        code, out, _ = run(capsys, "compute", str(p))
        assert code == 0
        assert "two_walk: a=1 b=10" in out
        assert "Var=50/121" in out

    def test_tripartite_graph6(self, tmp_path, capsys):
        from graphirr.families import complete_multipartite

        p = tmp_path / "g.g6"
        p.write_text(to_graph6(complete_multipartite([2, 3, 5])) + "\n")
        code, out, _ = run(capsys, "compute", str(p))
        assert code == 0
        assert "S=12" in out
        assert "Omega=13/100" in out

    def test_regular_cycle(self, tmp_path, capsys):
        from graphirr.families import cycle

        p = tmp_path / "c5.g6"
        p.write_text(to_graph6(cycle(5)))
        code, out, _ = run(capsys, "compute", str(p))
        assert code == 0
        assert "regular" in out
        assert "S=0" in out
        assert "Omega: undefined" in out

    @pytest.mark.parametrize(
        "gen, edges, classification, connected",
        [
            (["path", "4"], None, "2-degreed; bidegreed; balanced; tree", "yes  c=0"),
            (
                ["cs", "7", "2"],
                None,
                "2-degreed; bidegreed; dominating; complete split k=2",
                "yes  c=5",
            ),
            (None, "4 2\n0 1\n2 3\n", "regular", "no"),
        ],
        ids=["path-4", "cs-7-2", "two-edges"],
    )
    def test_text_classification(self, tmp_path, capsys, gen, edges, classification, connected):
        if gen is not None:
            code, edges, _ = run(capsys, "gen", *gen)
            assert code == 0
        p = tmp_path / "g.txt"
        p.write_text(edges)
        code, out, _ = run(capsys, "compute", str(p))
        assert code == 0
        lines = out.splitlines()
        assert f"classification: {classification}" in lines
        assert f"connected: {connected}" in lines

    def test_json_mode(self, tmp_path, capsys):
        p = tmp_path / "w.g6"
        p.write_text(to_graph6(wheel(5)))
        code, out, _ = run(capsys, "compute", "--json", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["measures"]["s"] == {"num": 8, "den": 5, "decimal": "1.6"}
        assert doc["two_walk"]["a"] == 2 and doc["two_walk"]["b"] == 4

    def test_json_two_walk_rational_has_decimal(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(format_edge_list(named("grotzsch")))
        code, out, _ = run(capsys, "compute", "--json", str(p))
        assert code == 0
        two_walk = json.loads(out)["two_walk"]
        assert two_walk["var_via_params"] == {"num": 50, "den": 121, "decimal": "0.413223"}
        assert two_walk["matches"] is True

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_one_context_and_one_fit(self, tmp_path, capsys, monkeypatch, json_flag):
        # counted in every module that holds them, so calls made inside
        # bound_report or variance_spectral_identity count too
        calls = {"context": 0, "two_walk_params": 0}
        for name in calls:
            real = getattr(cli, name)

            def counted(g, real=real, name=name):
                calls[name] += 1
                return real(g)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("graphirr") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        p = tmp_path / "g.txt"
        p.write_text(format_edge_list(named("grotzsch")))
        code, out, _ = run(capsys, "compute", *json_flag, str(p))
        assert code == 0 and "50" in out
        assert calls == {"context": 1, "two_walk_params": 1}

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("not a graph\n")
        code, _, err = run(capsys, "compute", str(p))
        assert code == 2 and "error" in err

    def test_oversized_edge_list_exit_3(self, tmp_path, capsys):
        p = tmp_path / "huge.txt"
        p.write_text("258048 0\n")
        code, _, err = run(capsys, "compute", str(p))
        assert code == 3 and "capability error" in err

    def test_edge_list_over_gen_cap_exit_3_before_building(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("compute built a graph over its cap")

        monkeypatch.setattr("graphirr.io.from_edge_list", no_build)
        p = tmp_path / "wide.txt"
        p.write_text("5001 0\n")
        code, _, err = run(capsys, "compute", str(p))
        assert code == 3 and "capped at n=5000" in err

    def test_eight_byte_graph6_on_stdin_exit_3(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("~~?@????\n"))
        code, _, err = run(capsys, "compute", "-")
        assert code == 3 and "258047" in err

    def test_two_graph6_codes_on_stdin_exit_2(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nC~\n"))
        code, _, err = run(capsys, "compute", "-")
        assert code == 2 and "more than one graph6 code" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(wheel(5)) + "\n"))
        code, out, _ = run(capsys, "compute", "-")
        assert code == 0 and "S=8/5" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "compute", str(tmp_path / "missing.g6"))
        assert code == 2 and "cannot read" in err

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"\xff\xfe\n")
        code, _, err = run(capsys, "compute", str(p))
        assert code == 2 and "cannot read" in err

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=40))
    def test_any_stdin_text_exits_0_2_or_3(self, text):
        import io
        from contextlib import redirect_stderr, redirect_stdout

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", io.StringIO(text))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(["compute", "-"]) in (0, 2, 3)


class TestGen:
    def test_wheel(self, capsys):
        code, out, _ = run(capsys, "gen", "wheel", "6")
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 6 and g.m == 10

    def test_split(self, capsys):
        code, out, _ = run(capsys, "gen", "cs", "7", "2")
        g = parse_graph6(out.strip())
        assert g.n == 7 and g.m == 11

    def test_named_diamond_edges(self, capsys):
        code, out, _ = run(capsys, "gen", "named", "diamond", "--edges")
        assert code == 0
        assert out.splitlines()[0] == "4 5"

    def test_round_trip_canonical(self, capsys):
        code, out, _ = run(capsys, "gen", "multipartite", "2", "3", "5")
        g = parse_graph6(out.strip())
        from graphirr.families import complete_multipartite

        assert canonical_code(g) == canonical_code(complete_multipartite([2, 3, 5]))

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "wheel", "3")
        assert code == 2
        code, _, err = run(capsys, "gen", "cs", "5")
        assert code == 2
        code, _, err = run(capsys, "gen", "named", "petersen")
        assert code == 2

    def test_unknown_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "bogus", "3"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["path", "x"], ["multipartite", "2", "y"]])
    def test_non_integer_params_exit_2(self, capsys, argv):
        code, _, err = run(capsys, "gen", *argv)
        assert code == 2 and "must be integers" in err

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["complete", "100000"], "n=5000"),
            (["path", "10000000"], "n=5000"),
            (["path", "5001"], "n=5000"),
            (["complete", "1001"], "m=500000"),
            (["cs", "5000", "102"], "m=500000"),
            (["multipartite", "1000", "1000"], "m=500000"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else v,
    )
    def test_over_cap_exit_3_before_building(self, capsys, monkeypatch, argv, cap):
        def no_build(*args):
            raise AssertionError("gen built a graph over its cap")

        monkeypatch.setattr("graphirr.families.from_edge_list", no_build)
        code, _, err = run(capsys, "gen", *argv)
        assert code == 3 and f"capped at {cap}" in err

    def test_at_cap_and_invalid_below_it(self, capsys):
        code, out, _ = run(capsys, "gen", "star", "5000", "--edges")
        assert code == 0 and out.splitlines()[0] == "5000 4999"
        # the edge count of a negative order is not a size: the constructor refuses it
        code, _, err = run(capsys, "gen", "complete", "-100000")
        assert code == 2 and "needs n >= 1" in err


class TestEnum:
    def test_count_table_slice(self, capsys):
        code, out, _ = run(
            capsys,
            "enum", "--n", "6", "--m", "12", "--connected", "--irregular", "--count",
        )
        assert code == 0 and out.strip() == "4"

    def test_tree_count(self, capsys):
        code, out, _ = run(capsys, "enum", "--trees", "--n", "4", "--count")
        assert code == 0 and out.strip() == "2"

    def test_stream_parses(self, capsys):
        code, out, _ = run(capsys, "enum", "--n", "5", "--connected")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 21
        for line in lines:
            parse_graph6(line)

    def test_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "enum", "--n", "9", "--count")
        assert code == 3 and "capability" in err

    def test_workers_flag(self, capsys):
        code, out, _ = run(
            capsys, "enum", "--n", "5", "--connected", "--workers", "2", "--count"
        )
        assert code == 0 and out.strip() == "21"

    def test_unicyclic_population(self, capsys):
        code, out, _ = run(capsys, "enum", "--unicyclic", "--n", "6", "--count")
        assert code == 0 and out.strip() == "13"

    def test_cached_rerun(self, capsys, tmp_path):
        argv = ["enum", "--n", "5", "--count", "--cache-dir", str(tmp_path)]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[:2] == second[:2] == (0, "34\n")

    def test_bad_m_exit_2(self, capsys):
        code, _, _ = run(capsys, "enum", "--n", "4", "--m", "99", "--count")
        assert code == 2

    def test_trees_and_unicyclic_exclusive_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "--n", "5", "--trees", "--unicyclic"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestCacheEnv:
    """``$GRAPHIRR_CACHE_DIR`` is the cache of every run without ``--cache-dir``."""

    def names(self, directory: Path) -> list[str]:
        return sorted(p.name for p in directory.iterdir()) if directory.exists() else []

    def test_verify_fills_it(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        code, _, _ = run(capsys, "verify", "--suite", "bounds", "--max-n", "4")
        assert code == 0
        want = [f"all-n{k}-conn-v{__version__}.g6" for k in range(1, 5)]
        assert self.names(tmp_path) == want

    def test_enum_fills_it(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        assert run(capsys, "enum", "--trees", "--n", "6", "--count")[:2] == (0, "6\n")
        assert self.names(tmp_path) == [f"trees-n6-v{__version__}.g6"]

    def test_flag_takes_precedence(self, capsys, monkeypatch, tmp_path):
        env, flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv(CACHE_ENV, str(env))
        code, _, _ = run(capsys, "enum", "--n", "4", "--count", "--cache-dir", str(flag))
        assert code == 0
        assert self.names(flag) == [f"all-n4-v{__version__}.g6"] and self.names(env) == []


class TestVerify:
    def test_all_suites_n4(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        csv_file = tmp_path / "summary.csv"
        code, out, _ = run(
            capsys,
            "verify", "--suite", "all", "--max-n", "4",
            "--out", str(out_file), "--csv", str(csv_file),
        )
        assert code == 0
        docs = json.loads(out_file.read_text())
        assert {d["suite_id"] for d in docs} >= {"bounds", "trees", "omega"}
        assert all(not d["violations"] for d in docs)
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("suite,checked")

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "all", "--max-n", "6"], ["conjectures", "--max-n", "6"]],
        ids=["verify", "conjectures"],
    )
    def test_out_byte_identical_across_workers(self, capsys, tmp_path, argv):
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            code, stdout, _ = run(capsys, *argv, "--workers", workers, "--out", str(out))
            assert code == 0 and "s)" in stdout  # the summary line keeps the seconds
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert b'"elapsed"' not in texts[0]

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds", "--max-n", "4")
        assert code == 0 and "suite=bounds" in out

    @pytest.mark.parametrize(
        "bound_id, checked",
        [
            ("var_le_gap_s", 143),
            ("s_le_irr", 143),
            ("var_le_gap_sq4", 143),
            ("var_le_product_bound", 143),
            ("s_ge_scaled_ird", 143),
            ("var_ge_scaled_irr_ird", 143),
            ("s_sq_le_n_sq_var", 143),
            ("zagreb_le_split_bound", 143),
            ("omega_lt_half", 131),  # irregular
            ("omega_ge_cyclic_floor", 86),  # cycle rank 1 .. (n+2)/2, irregular
            ("s_le_pendant_cyclic_cap", 93),  # cycle rank 1 .. (n+2)/2
        ],
    )
    def test_bound_counts_the_graphs_it_applies_to(self, capsys, tmp_path, bound_id, checked):
        # of the 143 connected classes on at most 6 vertices
        csv_file = tmp_path / "summary.csv"
        argv = ["--suite", bound_id, "--max-n", "6", "--csv", str(csv_file)]
        code, out, _ = run(capsys, "verify", *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and f"suite={bound_id} checked={checked} violations=0" in out
        assert csv_file.read_text().splitlines()[1] == f"{bound_id},{checked},0,0,0"

    def test_tree_population(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "trees", "--max-n", "7", "--population", "trees",
        )
        assert code == 0

    def test_unknown_suite_exit_2(self, capsys, monkeypatch, tmp_path):
        calls = []
        real = verify.enumerate_range

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, "enumerate_range", counting)
        argv = ["--suite", "bogus", "--max-n", "7", "--cache-dir", str(tmp_path)]
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2 and "unknown suite" in err
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_cap_exit_3(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bounds", "--max-n", "20")
        assert code == 3

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["verify", "--max-n", "0"], 1),
            (["verify", "--max-n", "-3"], 1),
            (["verify", "--population", "trees", "--max-n", "1"], 2),
            (["verify", "--population", "unicyclic", "--max-n", "2"], 3),
            (["conjectures", "--max-n", "0"], 1),
        ],
        ids=["graphs", "graphs-negative", "trees", "unicyclic", "conjectures"],
    )
    def test_empty_range_exit_2(self, capsys, monkeypatch, argv, low):
        def no_work(*args, **kwargs):
            raise AssertionError("an empty range reached enumeration")

        monkeypatch.setattr("graphirr.verify.enumerate_range", no_work)
        code, out, err = run(capsys, *argv)
        assert code == 2 and f"the smallest order is {low}" in err
        assert "checked=" not in out


class TestConjecturesCmd:
    def test_scan_n5(self, capsys):
        code, out, _ = run(
            capsys, "conjectures", "--max-n", "5", "--include-disconnected"
        )
        assert code == 0
        assert "conjecture-ird" in out and "conjecture-omega" in out

    def test_findings_are_printed(self, capsys, monkeypatch, tmp_path):
        real = measures._measure_set

        def on_the_floor(ctx):  # 2n·Var = S on every graph
            ms = real(ctx)
            return ms._replace(var=ms.s / (2 * ctx.n))

        monkeypatch.setattr(measures, "_measure_set", on_the_floor)
        argv = ["--max-n", "4", "--cache-dir", str(tmp_path)]
        code, out, _ = run(capsys, "conjectures", *argv)
        assert code == 1
        note = "equality outside the unit-gap bidegreed family"
        assert f"  finding omega_floor on {canonical_code(star(4))}: {note}" in out.splitlines()


class TestExtremalCmd:
    def test_6_12(self, capsys):
        code, out, _ = run(capsys, "extremal", "--n", "6", "--m", "12")
        assert code == 0
        assert "coincide: true" in out
        assert "max S = 6" in out

    def test_7_11_both_maxima_at_the_split_graph(self, capsys, tmp_path):
        out_path = tmp_path / "extremal.json"
        code, out, _ = run(capsys, "extremal", "--n", "7", "--m", "11", "--out", str(out_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("max S = ") and lines[1].endswith("attained by: CS(7,2)")
        assert lines[2].startswith("max Var = ") and lines[2].endswith("attained by: CS(7,2)")
        assert lines[3] == "coincide: true"
        assert lines[4] == f"wrote {out_path}"
        assert json.loads(out_path.read_text()) == {
            "n": 7,
            "m": 11,
            "max_s": "80/7",
            "max_var": "160/49",
            "max_s_graphs": ["F}rE?"],
            "max_var_graphs": ["F}rE?"],
            "coincide": True,
        }

    def test_empty_slice_exit_2(self, capsys):
        code, _, _ = run(capsys, "extremal", "--n", "6", "--m", "2")
        assert code == 2

    def test_workers_start_no_process(self, capsys, monkeypatch, tmp_path):
        def refuse():
            raise AssertionError("extremal started a process")

        monkeypatch.setattr(os, "fork", refuse)
        argv = ["extremal", "--n", "7", "--m", "11", "--cache-dir", str(tmp_path)]
        code, out, _ = run(capsys, *argv, "--workers", "2")
        assert code == 0 and "attained by: CS(7,2)" in out


class TestSplitKCmd:
    def test_rule(self, capsys):
        code, out, _ = run(capsys, "split-k", "--n", "12")
        assert code == 0 and "[4]" in out

    def test_at_cap_builds_no_graph(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("split-k built a graph")

        monkeypatch.setattr("graphirr.families.from_edge_list", no_build)
        code, out, _ = run(capsys, "split-k", "--n", "5000")
        assert code == 0 and out == "n=5000 rule k=[1666, 1667] brute-force argmax=[1666, 1667]\n"

    def test_over_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "split-k", "--n", "5001")
        assert code == 3 and "split-k capped at n=5000" in err


class TestExitContract:
    def test_violations_exit_1(self, capsys):
        from graphirr.cli import _emit_reports
        from graphirr.verify import VerificationReport, Violation

        bad = VerificationReport(
            suite_id="bounds",
            population="doctored",
            graphs_checked=1,
            violations=(Violation("@", "s_le_irr", "2", "1"),),
            findings=(),
            equalities=(),
            elapsed=0.0,
        )
        assert _emit_reports([bad]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "--n", "5"],
            ["verify", "--max-n", "5"],
            ["conjectures", "--max-n", "5"],
            ["extremal", "--n", "5", "--m", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_workers_below_one_exit_2(self, capsys, argv):
        # enumeration refuses the count before it grows anything
        code, _, err = run(capsys, *argv, "--workers", "0")
        assert code == 2 and "workers must be positive" in err

    def test_closed_stdout_exit_141(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "graphirr", "extremal", "--n", "6", "--m", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # long before start-up ends, so the first write fails
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert b"Traceback" not in err


def _entry_point(*argv: str) -> subprocess.CompletedProcess:
    """``python -m graphirr`` on this checkout's source, as a user runs it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(CACHE_ENV, None)
    return subprocess.run(
        [sys.executable, "-m", "graphirr", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestEntryPoint:
    """``__main__`` passes main's exit code through, with the collector off and frozen."""

    def test_clean_run_exit_0(self, tmp_path):
        argv = ["verify", "--suite", "bounds", "--max-n", "4", "--cache-dir", str(tmp_path)]
        proc = _entry_point(*argv)
        assert proc.returncode == 0 and "suite=bounds checked=" in proc.stdout
        assert proc.stderr == ""

    def test_unknown_suite_exit_2(self, tmp_path):
        argv = ["verify", "--suite", "bogus", "--max-n", "4", "--cache-dir", str(tmp_path)]
        proc = _entry_point(*argv)
        assert proc.returncode == 2 and "unknown suite 'bogus'" in proc.stderr

    def test_argparse_exits_pass_through(self):
        # argparse leaves through SystemExit: 0 after --version, 2 on a bad option
        version = _entry_point("--version")
        assert version.returncode == 0 and version.stdout == __version__ + "\n"
        bad = _entry_point("verify", "--max-n")
        assert bad.returncode == 2 and "expected one argument" in bad.stderr


class TestRuntimeDependencies:
    def test_cli_import_does_not_load_numpy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import graphirr.cli, sys; assert 'numpy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_worker_run_does_not_load_multiprocessing(self):
        # a worker count starts no pool: the growth runs in the calling process
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys; from graphirr.enumeration import EnumerationSpec, enumerate_range;"
            " enumerate_range([EnumerationSpec(n=7, m=11, connected_only=True)], workers=2);"
            " assert 'multiprocessing' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_cli_import_loads_no_dataclasses(self):
        # importing dataclasses (it pulls in inspect) and building records
        # with it cost every command about 30 ms of start-up
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import graphirr.cli, sys;"
            " assert not {'dataclasses', 'multiprocessing'} & set(sys.modules)"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_cli_import_loads_no_logging(self):
        # logging pulls in traceback, tokenize, linecache, textwrap and string,
        # about 8 ms of every command; it is imported at its one warning
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import graphirr.cli, sys; assert 'logging' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_damaged_cache_still_warns(self, tmp_path):
        argv = ["verify", "--suite", "bounds", "--max-n", "4", "--cache-dir", str(tmp_path)]
        assert _entry_point(*argv).returncode == 0
        damaged = sorted(tmp_path.iterdir())[-1]
        damaged.write_text(damaged.read_text()[:-2] + "\n")
        proc = _entry_point(*argv)
        assert proc.returncode == 0
        assert f"cache file {damaged} fails its checks; recomputing" in proc.stderr
