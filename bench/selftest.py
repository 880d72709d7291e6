"""Tests of the benchmark itself (not collected by the package's test run).

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jacktop import cli, verify  # noqa: E402
from jacktop.exact import Laurent  # noqa: E402
from jacktop.analysis import kl_expand_full  # noqa: E402
from jacktop.jackref import jack_character  # noqa: E402
from jacktop.topdegree import ch_top_eval, kl_top  # noqa: E402

GOLDENS = workloads.load_goldens()


def altered(goldens: dict, section: str, key) -> dict:
    """A copy of the goldens with one coefficient of one entry changed."""
    out = copy.deepcopy(goldens)
    entry = out[section][key]
    if section == "kl_top":
        entry[0]["coeff"] = str(int(entry[0]["coeff"]) + 1)
    else:
        exp = next(iter(entry))
        entry[exp] = str(Fraction(entry[exp]) + 1)
    return out


def test_goldens_match_printed_tables():
    for n, table in verify.PROLOGUE_TABLES.items():
        assert GOLDENS["kl_top"][n] == table.to_json()


def test_ch_goldens_match_closed_forms():
    checked = 0
    for pi in workloads.CLOSED_FORM_PIS:
        for lam in workloads.partitions(workloads.CH_SIZES):
            want = verify.closed_form_character(pi, lam)
            got = GOLDENS["ch"][workloads.value_key(pi, lam)]
            assert Laurent.from_json(got) == want
            checked += 1
    assert checked == 4 * 85


@pytest.mark.parametrize("make", [workloads.top_map_inputs,
                                  workloads.oracle_inputs,
                                  workloads.cli_script])
def test_seed_determines_inputs(make):
    assert make(7, 0) == make(7, 0)
    assert make(7, 1) == make(7, 1)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_cli_script_kinds_are_fixed():
    def kinds(script):
        return [a[0] if a[0] != "eval" else a[1] for a in script]
    want = [k for k in workloads.CLI_KINDS for _ in range(workloads.CLI_PER_KIND)]
    assert kinds(workloads.cli_script(1, 0)) == want
    assert kinds(workloads.cli_script(2, 3)) == want


def small_top_map() -> dict:
    cold = [[4, [3, 2, 1]], [4, [5]], [4, [2, 2]]]
    return {"n": 4, "queries": workloads.interleave(cold, cold)}


def small_oracle() -> dict:
    cold = [[[2], [3, 2, 1]], [[3], [4, 2]], [[1, 1], [2, 2, 1, 1]]]
    warm = [[[1], [3, 2, 1]], [[2], [4, 2]], [[3], [2, 2, 1, 1]]]
    return {"n": 3, "size": 6, "queries": workloads.interleave(cold, warm)}


SMALL_SCRIPT = [["kl-top", "3", "--format", "text"],
                ["eval", "ch", "2,1", "4,2"],
                ["eval", "chtop", "5", "3,1"],
                ["census", "3", "--format", "text"],
                ["verify", "catalan", "5"]]


def test_traced_and_untraced_outputs_identical(tmp_path):
    for workload, inputs in (("top-map", small_top_map()),
                             ("oracle-full", small_oracle())):
        tally = run.Tally()
        _, plain = run.inproc_round(workload, inputs, tally)
        _, traced = run.inproc_round(workload, inputs, tally,
                                     str(tmp_path / f"{workload}.bin"))
        assert tally.failures == [] and plain and plain == traced
    tally = run.Tally()
    _, plain = run.cli_round(SMALL_SCRIPT, tally, GOLDENS)
    (tmp_path / "cli").mkdir()
    _, traced = run.cli_round(SMALL_SCRIPT, tally, GOLDENS, str(tmp_path / "cli"))
    assert tally.failures == [] and plain == traced


def test_counts_repeat_between_traced_runs(tmp_path):
    inputs = {"n": 6, "queries": [["cold", 6, [4, 3, 2]], ["warm", 6, [4, 3, 2]]]}
    counts = []
    for i in range(2):
        path = str(tmp_path / f"round{i}.bin")
        run.inproc_round("top-map", inputs, run.Tally(), path)
        layer = tracing.layer_metrics(tracing.aggregate(path), 0, 1.0)
        counts.append({k: v for k, v in layer.items()
                       if tracing.LAYER_UNITS[k] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["maps.orbits"] == 3447
    assert counts[0]["maps.pairs_transitive"] == 3447 * 120
    assert counts[0]["maps.count_embeddings.calls"] == 2 * 3447
    assert counts[0]["jackref.jack_powersum.calls"] == 0


def test_top_map_check_catches_altered_golden():
    inputs = small_top_map()
    result = {"table": kl_top(4).to_json(),
              "values": [ch_top_eval(n, tuple(lam)).to_json()
                         for _, n, lam in inputs["queries"]]}
    assert workloads.check_top_map(result, inputs, GOLDENS) == []
    assert workloads.check_top_map(result, inputs, altered(GOLDENS, "kl_top", 4))


def test_oracle_check_catches_altered_golden():
    inputs = small_oracle()
    result = {"table": kl_expand_full(3).to_json(),
              "values": [jack_character(tuple(pi), tuple(lam)).to_json()
                         for _, pi, lam in inputs["queries"]]}
    assert workloads.check_oracle(result, inputs, GOLDENS) == []
    assert workloads.check_oracle(result, inputs, altered(GOLDENS, "kl_top", 3))


def test_cli_check_catches_altered_golden():
    for argv, section, key in (
            (["kl-top", "3", "--format", "json"], "kl_top", 3),
            (["kl-top", "4", "--format", "text"], "kl_top", 4),
            (["eval", "chtop", "5", "4,2,1"], "kl_top", 5),
            (["eval", "R", "4", "3,3,1"], "R", "4|3,3,1"),
            (["eval", "ch", "2,1", "4,2"], "ch", "2,1|4,2"),
            (["eval", "ch", "3", "3,2,1"], "ch", "3|3,2,1")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert workloads.check_command(argv, out.getvalue(), GOLDENS) is None
        assert workloads.check_command(argv, out.getvalue(),
                                       altered(GOLDENS, section, key))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_census_check(fmt):
    argv = ["census", "4", "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert workloads.check_command(argv, out.getvalue(), GOLDENS) is None
    lines = out.getvalue().splitlines(keepends=True)
    if fmt == "text":
        assert workloads.check_command(argv, "".join(lines[1:]), GOLDENS)
    else:
        rows = json.loads(out.getvalue())
        rows[0]["orbitSize"] += 1
        assert workloads.check_command(argv, json.dumps(rows), GOLDENS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "top-map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
