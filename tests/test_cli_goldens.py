"""CLI stdout against the benchmark's stored values, bench/goldens.json (read
only), and `eval chtop` against its golden g/R tables, so an output change
fails here and not first in a benchmark run."""

import json
import os

import pytest

from jacktop import cli
from jacktop.exact import KLPoly
from jacktop.functionals import kl_evaluate
from jacktop.young import enumerate_partitions, format_partition

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "goldens.json")

with open(GOLDENS, encoding="utf-8") as fh:
    goldens = json.load(fh)


def stdout_of(capsys, argv):
    assert cli.main(argv) == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("n", sorted(goldens["kl_top"], key=int))
def test_kl_top_matches_golden(capsys, n):
    terms = goldens["kl_top"][n]
    assert stdout_of(capsys, ["kl-top", n]) == json.dumps(terms) + "\n"
    assert stdout_of(capsys, ["kl-top", n, "--format", "text"]) == \
        KLPoly.from_json(terms).text() + "\n"


@pytest.mark.parametrize("kind", ["R", "ch"])
def test_eval_matches_golden(capsys, kind):
    for key, value in goldens[kind].items():
        index, lam = key.split("|")
        assert stdout_of(capsys, ["eval", kind, index, lam]) == \
            json.dumps(value) + "\n", key


@pytest.mark.parametrize("n", sorted(goldens["kl_top"], key=int))
def test_eval_chtop_matches_golden_table(capsys, n):
    # The map route on the command line against the golden g/R table
    # evaluated through the free cumulants, on every diagram of size <= 8.
    table = KLPoly.from_json(goldens["kl_top"][n])
    for lam in enumerate_partitions(8):
        argv = ["eval", "chtop", n, format_partition(lam)]
        assert stdout_of(capsys, argv) == \
            json.dumps(kl_evaluate(table, lam).to_json()) + "\n", (n, lam)
