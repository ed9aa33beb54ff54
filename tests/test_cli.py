"""CLI surface: subcommands, flags, exit codes, CSV outputs."""

from __future__ import annotations

import re

import numpy as np
import pytest

import locmax.bench
import locmax.cli
import locmax.matchers
from locmax.cli import main
from locmax.graphio import read_edge_list

from test_matchers import _no_flags
from test_pram import _every_offer


def test_gen_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", "--family", "random", "--x", "6", "--alpha", "4",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    g = read_edge_list(out)
    assert g.num_vertices == 64
    assert g.num_edges == 256
    assert "n=64" in capsys.readouterr().out


def test_match_on_generated_instance(capsys):
    rc = main(["match", "--family", "rgg", "--x", "7", "--seed", "2",
               "--alg", "localmax", "--engine", "pram"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "valid=True maximal=True" in out


def test_match_reads_file_and_appends_csv(tmp_path, capsys):
    graph_file = tmp_path / "in.txt"
    graph_file.write_text("0 1 2.5\n1 2 1.0\n")
    csv_file = tmp_path / "rows.csv"
    rc = main(["match", "--input", str(graph_file), "--alg", "greedy",
               "--out", str(csv_file)])
    assert rc == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0].startswith("schema,instance,algorithm")
    assert len(lines) == 2


def test_match_rows_are_bench_rows(tmp_path, capsys):
    """``match --out`` rows, byte for byte, apart from the timing column."""
    graph_file = tmp_path / "in.txt"
    graph_file.write_text("0 1 2.5\n1 2 1.0\n2 3 0.5\n")
    csv_file = tmp_path / "rows.csv"
    runs = (
        ["--family", "random", "--x", "7", "--alpha", "4", "--seed", "5", "--engine", "seq"],
        ["--family", "random", "--x", "7", "--alpha", "4", "--seed", "5", "--engine", "bsp",
         "--p", "3"],
        ["--input", str(graph_file), "--alg", "greedy", "--seed", "1"],
    )
    for argv in runs:
        assert main(["match", *argv, "--out", str(csv_file)]) == 0
    rows = re.sub(rb",[0-9]+\.[0-9]{3},([0-9]+)\r\n", rb",MILLIS,\1\r\n", csv_file.read_bytes())
    assert rows == (
        b"schema,instance,algorithm,engine,seed,weight,ratio_vs_gpa,rounds,"
        b"mean_removed_fraction,millis,messages\r\n"
        b"locmax-bench-1,random-x7-a4-wdefault-s5,localmax,seq,5,47.52452502764434,,4,"
        b"0.8377774003623188,MILLIS,0\r\n"
        b"locmax-bench-1,random-x7-a4-wdefault-s5,localmax,bsp,5,47.52452502764434,,4,"
        b"0.8377774003623188,MILLIS,356\r\n"
        b"locmax-bench-1,in.txt,greedy,seq,1,3.0,,1,1.0,MILLIS,0\r\n"
    )


def test_malformed_input_file_is_a_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "bad.txt"
    graph_file.write_text("0 1 2.5\n1 x 1.0\n")
    assert main(["match", "--input", str(graph_file)]) == 2
    err = capsys.readouterr().err
    assert err == f"locmax: error: {graph_file}:2: cannot parse '1 x 1.0'\n"


def test_weight_mode_the_family_lacks_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", "--family", "random", "--weights", "euclidean", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "locmax: error: euclidean weights are undefined for the random family\n"
    assert not out.exists()


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--family", "random", "--x", "6", "--alpha", "4",
               "--seeds", "0", "1", "--alg", "localmax", "gpa",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + instances * algorithms * seeds


def test_bench_bsp_engine_records_messages(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--family", "rgg", "--x", "7", "--seeds", "0",
               "--alg", "localmax", "--engine", "bsp", "--p", "4",
               "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    messages = int(row.split(",")[header.split(",").index("messages")])
    assert messages >= 0


def test_bench_on_a_parallel_engine_runs_the_other_matchers_on_seq(tmp_path):
    def rows(*engine_args):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--x", "6", "--seeds", "0", *engine_args, "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        return {r["algorithm"]: r for r in (dict(zip(header.split(","), ln.split(","))) for ln in lines)}

    bsp, seq = rows("--engine", "bsp"), rows()
    assert {alg: r["engine"] for alg, r in bsp.items()} == {
        alg: "bsp" if alg == "localmax" else "seq" for alg in seq}
    for column in ("weight", "rounds"):
        assert bsp["localmax"][column] == seq["localmax"][column]


def test_shrink_passes_on_random_family(tmp_path, capsys):
    out = tmp_path / "shrink.csv"
    rc = main(["shrink", "--family", "random", "--x", "9", "--alpha", "4",
               "--seeds", *[str(s) for s in range(5)], "--out", str(out)])
    assert rc == 0
    assert "mean_removed" in capsys.readouterr().out
    assert out.read_text().startswith("schema,instance,round")


def test_shrink_rows_byte_for_byte(tmp_path):
    """``shrink --out`` rows, byte for byte: per-round sums over seeds that
    ran different round counts, with and without rerandomize."""
    out = tmp_path / "shrink.csv"
    assert main(["shrink", "--family", "random", "--x", "7", "--alpha", "4",
                 "--seeds", "0", "1", "2", "--out", str(out)]) == 0
    assert main(["shrink", "--family", "rgg", "--x", "6", "--seeds", "3", "4",
                 "--no-rerandomize", "--no-check", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"schema,instance,round,seeds_alive,mean_removed_fraction,mean_survivor_fraction\r\n"
        b"locmax-bench-1,random-x7-a4-wunit-s0+1+2,0,3,0.7708333333333334,0.22916666666666663\r\n"
        b"locmax-bench-1,random-x7-a4-wunit-s0+1+2,1,3,0.7244318181818182,0.27556818181818177\r\n"
        b"locmax-bench-1,random-x7-a4-wunit-s0+1+2,2,3,0.8762886597938144,0.12371134020618557\r\n"
        b"locmax-bench-1,random-x7-a4-wunit-s0+1+2,3,2,1.0,0.0\r\n"
        b"locmax-bench-1,rgg-x6-wunit-s3+4,0,2,0.7647058823529411,0.23529411764705888\r\n"
        b"locmax-bench-1,rgg-x6-wunit-s3+4,1,2,0.8269230769230769,0.17307692307692313\r\n"
        b"locmax-bench-1,rgg-x6-wunit-s3+4,2,2,1.0,0.0\r\n"
    )


def test_audit_rows_byte_for_byte(tmp_path):
    out = tmp_path / "audit.csv"
    for alg in ("localmax", "hem"):
        assert main(["audit", "--alg", alg, "--trials", "40", "--seed", "3",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"schema,matcher,trials,min_ratio,mean_ratio,violations,invalid,non_maximal\r\n"
        b"locmax-bench-1,localmax,40,0.7272727272727273,0.9510527400183394,0,0,0\r\n"
        b"locmax-bench-1,hem,40,0.3169965863576146,0.9295034814654631,0,0,0\r\n"
    )


def test_crosscheck_output_byte_for_byte(capsys):
    assert main(["crosscheck", "--family", "random", "--x", "7", "--alpha", "4",
                 "--seeds", "0", "1", "--p", "1", "2", "4"]) == 0
    assert main(["crosscheck", "--family", "rgg", "--x", "6", "--seeds", "2", "--p", "3",
                 "--no-rerandomize"]) == 0
    assert capsys.readouterr().out == (
        "random-x7-a4-wdefault-s0 seed=0: ok rounds=4 crew_conflicts=0 slot_ops=3551 "
        "budget=9216\n"
        "random-x7-a4-wdefault-s1 seed=1: ok rounds=5 crew_conflicts=0 slot_ops=3593 "
        "budget=9216\n"
        "rgg-x6-wdefault-s2 seed=2: ok rounds=2 crew_conflicts=0 slot_ops=799 budget=2336\n"
    )


def test_audit_exit_codes(capsys):
    assert main(["audit", "--alg", "localmax", "--trials", "50", "--seed", "3"]) == 0
    assert main(["audit", "--alg", "hem", "--trials", "50", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "min_ratio" in out


def test_audit_negative_trials_is_a_usage_error(capsys):
    assert main(["audit", "--alg", "localmax", "--trials", "-3"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "locmax: error: trials must be >= 0, got -3\n")


def test_appending_other_columns_to_a_csv_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["audit", "--alg", "localmax", "--trials", "20", "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert main(["match", "--x", "6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"locmax: error: {out}: cannot append rows with columns schema,"
                          "instance,") and err.count("\n") == 1
    assert err.endswith(" under the header schema,matcher,trials,min_ratio,mean_ratio,"
                        "violations,invalid,non_maximal\n")
    assert out.read_bytes() == before


@pytest.mark.parametrize("argv", [["match", "--x", "6"],
                                  ["shrink", "--x", "6", "--seeds", "0"],
                                  ["audit", "--trials", "5"]], ids=lambda argv: argv[0])
def test_out_file_with_other_columns_is_rejected_before_the_job_runs(tmp_path, capsys, argv):
    out = tmp_path / "f.csv"
    out.write_bytes(b"a,b\r\n1,2\r\n")
    assert main([*argv, "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""  # no result line: the job did not run
    assert err.startswith(f"locmax: error: {out}: cannot append rows with columns schema,")
    assert err.endswith(" under the header a,b\n") and err.count("\n") == 1
    assert out.read_bytes() == b"a,b\r\n1,2\r\n"


def test_audit_rows_append_under_one_header(tmp_path):
    out = tmp_path / "audit.csv"
    want = []
    for seed in (0, 1):
        assert main(["audit", "--trials", "5", "--seed", str(seed), "--out", str(out)]) == 0
        (row,) = locmax.bench.csv_rows([locmax.bench.approximation_audit("localmax", 5, seed)])
        want.append(",".join(str(v) for v in row.values()))
    header, *rows = out.read_text().splitlines()
    assert header == "schema,matcher,trials,min_ratio,mean_ratio,violations,invalid,non_maximal"
    assert rows == want


def test_crosscheck_ok(capsys):
    rc = main(["crosscheck", "--family", "random", "--x", "7", "--alpha", "4",
               "--seeds", "0", "1", "--p", "1", "2", "4"])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_crosscheck_fails_on_mismatching_runs(monkeypatch, capsys):
    # same matching, but the p=4 run reports one round more than seq's
    bsp_local_max = locmax.bench.bsp_local_max

    def extra_round(g, p, seed, rerandomize=True):
        matching, trace = bsp_local_max(g, p, seed, rerandomize)
        if p == 4:
            trace.rounds.append(trace.rounds[-1])
        return matching, trace

    monkeypatch.setattr(locmax.bench, "bsp_local_max", extra_round)
    assert main(["crosscheck", "--family", "rgg", "--x", "6", "--seeds", "0",
                 "--p", "2", "4"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("rgg-x6-wdefault-s0 seed=0: MISMATCH (bsp-p4:rounds) rounds=")
    assert err == "FAIL 1 mismatching runs\n"


def test_crosscheck_fails_on_exclusive_write_conflicts(monkeypatch, capsys):
    pram_local_max = locmax.bench.pram_local_max

    def clashing_write(g, seed, checked=False, rerandomize=True):
        matching, trace = pram_local_max(g, seed, checked, rerandomize)
        trace.write_log.record(np.array([5, 5]))  # one writer too many
        return matching, trace

    monkeypatch.setattr(locmax.bench, "pram_local_max", clashing_write)
    assert main(["crosscheck", "--family", "rgg", "--x", "6", "--seeds", "0", "1",
                 "--p", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.count(": ok rounds=") == out.count("crew_conflicts=1 ") == 2
    assert err == "FAIL 2 exclusive-write conflicts\n"


def test_crosscheck_counts_the_marks_of_matched_edges_that_share_a_vertex(monkeypatch, capsys):
    # every offer wins, so every engine's matching shares vertices and pram
    # runs to the end, its log counting each mark that lands on a marked vertex
    monkeypatch.setattr(locmax.matchers, "_raise_candidates", _every_offer)
    assert main(["crosscheck", "--family", "rgg", "--x", "5", "--seeds", "0", "--p", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ("rgg-x5-wdefault-s0 seed=0: MISMATCH (seq:dominance,pram:dominance,"
                   "bsp-p2:dominance) rounds=1 crew_conflicts=51 slot_ops=266 budget=880\n")
    assert err == "FAIL 1 mismatching runs\n"


def test_crosscheck_fails_on_matchings_that_are_not_locally_dominant(salt_only, capsys):
    assert main(["crosscheck", "--family", "rgg", "--x", "10", "--seeds", "0", "1", "2",
                 "--p", "1", "2", "4", "8"]) == 1
    out, err = capsys.readouterr()
    assert out.count(": MISMATCH (seq:dominance,pram:dominance,bsp-p1:dominance,"
                     "bsp-p2:dominance,bsp-p4:dominance,bsp-p8:dominance) rounds=") == 3
    assert err == "FAIL 3 mismatching runs\n"


def test_crosscheck_names_the_engines_that_raise(monkeypatch, capsys):
    # no round matches anything, so every engine raises on its first round
    monkeypatch.setattr(locmax.matchers, "_raise_candidates", _no_flags)
    assert main(["crosscheck", "--family", "rgg", "--x", "6", "--seeds", "0",
                 "--p", "1", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ("rgg-x6-wdefault-s0 seed=0: MISMATCH (seq:error,pram:error,bsp-p1:error,"
                   "bsp-p2:error) rounds=0 crew_conflicts=0 slot_ops=0 budget=2176\n")
    assert err == "FAIL 1 mismatching runs\n"


def test_unknown_algorithm_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["match", "--alg", "nosuch"])


def test_bench_without_out_prints_one_line_per_record(capsys):
    assert main(["bench", "--family", "random", "--x", "5", "--seeds", "0",
                 "--alg", "localmax", "gpa"]) == 0
    assert capsys.readouterr().out == (
        "random-x5-a4-wdefault-s0 localmax seed=0 weight=13.627663 ratio_vs_gpa=1.0731 "
        "rounds=4\n"
        "random-x5-a4-wdefault-s0 gpa seed=0 weight=12.699437 ratio_vs_gpa=1.0000 rounds=1\n"
    )


def test_shrink_fails_outside_its_survivor_band(capsys):
    # every edge of the 8-vertex rgg instance goes in one round
    assert main(["shrink", "--x", "3", "--seeds", "0"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("rgg-x3-wunit-s0: seeds=1 mean_removed=1.0000 mean_survivor=0.0000 ")
    assert err == "FAIL rgg-x3-wunit-s0: survivor fraction outside [0.10, 0.45]\n"


def test_shrink_names_every_failed_bound(monkeypatch, capsys):
    def slow_shrink(spec, seeds, rerandomize=True):
        return locmax.bench.ShrinkReport("demo", (), mean_removed_fraction=0.4,
                                         mean_survivor_fraction=0.6, max_rounds=8, max_edges=1)

    monkeypatch.setattr(locmax.cli, "shrink_report", slow_shrink)
    assert main(["shrink", "--seeds", "0"]) == 1
    assert capsys.readouterr().err == (
        "FAIL demo: mean removed fraction below 1/2\n"
        "FAIL demo: survivor fraction outside [0.10, 0.45]\n"
        "FAIL demo: exceeded round bound 7\n"
    )


def test_shrink_has_no_weights_flag(capsys):
    # shrink always runs unit weights
    with pytest.raises(SystemExit) as exc:
        main(["shrink", "--family", "random", "--weights", "euclidean"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --weights euclidean" in capsys.readouterr().err


def test_bench_on_a_file_applies_unit_weights(tmp_path):
    weighted, unit = tmp_path / "weighted", tmp_path / "unit"
    weighted.mkdir()
    unit.mkdir()
    (weighted / "in.txt").write_text("0 1 2.5\n1 2 1.0\n2 3 0.5\n")
    (unit / "in.txt").write_text("0 1 1.0\n1 2 1.0\n2 3 1.0\n")

    def rows(path, *weights):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--input", str(path), "--seeds", "0", "1", *weights,
                     "--out", str(out)]) == 0
        return re.sub(r",[0-9]+\.[0-9]{3},", ",MILLIS,", out.read_text())

    assert rows(weighted / "in.txt", "--weights", "unit") == rows(unit / "in.txt")
    assert rows(weighted / "in.txt") != rows(unit / "in.txt")


@pytest.mark.parametrize("weights", ["random", "euclidean"])
def test_bench_on_a_file_rejects_generated_weights(tmp_path, capsys, weights):
    graph_file = tmp_path / "in.txt"
    graph_file.write_text("0 1 2.5\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(graph_file), "--weights", weights,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"locmax: error: {weights} weights are undefined for a file, which keeps its "
            "own weights\n")
    assert not out.exists()


@pytest.mark.parametrize("ext, text", [
    (".mtx", "%%MatrixMarket matrix coordinate real symmetric\n"
             "1000000000000000000 1000000000000000000 0\n"),
    (".txt", "# n=1000000000000000000\n0 1 1.0\n"),
])
def test_match_rejects_a_vertex_count_past_int64_keys(tmp_path, capsys, ext, text):
    graph_file = tmp_path / f"huge{ext}"
    graph_file.write_text(text)
    out = tmp_path / "rows.csv"
    assert main(["match", "--input", str(graph_file), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "locmax: error: n=1000000000000000000 vertices is too many: "
            "vertex-pair keys need n*n <= 2**63\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["match", "--input", "missing.txt"], "[Errno 2] No such file or directory: 'missing.txt'"),
    (["match", "--input", "."], "[Errno 21] Is a directory: '.'"),
    (["gen", "--out", "no/such/dir/g.txt"],
     "[Errno 2] No such file or directory: 'no/such/dir/g.txt'"),
])
def test_unreadable_or_unwritable_files_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                          argv, message):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "rows.csv"] if argv[0] == "match" else argv) == 2
    assert capsys.readouterr() == ("", f"locmax: error: {message}\n")
    assert list(tmp_path.iterdir()) == []
