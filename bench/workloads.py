"""Seeded inputs and exact checks of the three benchmark workloads.

Inputs depend only on (workload, seed, round); the programs under test
receive the generated inputs and nothing else.  Every check compares with a
stored golden (goldens.json, written by make_goldens.py) or an independent
route.  Each workload has cold and warm operations:

  top-map      kl_top(6); then ch_top_eval(6, lam) on a sample of diagrams of
               size 6-10 (cold), each diagram queried again in the same
               interpreter right after the next cold query (warm: embedding
               counts cached).  Values checked against kl_evaluate(golden
               table, lam).
  oracle-full  kl_expand_full(6), checked against the golden kl_top(6) table
               and a zero degree-6 gap; then jack_character(pi, lam) on every
               diagram of size 9 (cold), each diagram asked a second pi right
               after the next cold query (warm: power-sum expansion cached).
               Values checked against the closed forms.
  cli-session  a script of short `jacktop` commands, each in its own
               interpreter, run against one fresh cache directory twice:
               cold (writes) then warm (reads).
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

TOP_N = 6
TOP_QUERIES = 13            # diagrams per top-map round, each queried twice
TOP_SIZES = range(6, 11)
ORACLE_SIZE = 9
CLOSED_FORM_PIS = [(1,), (2,), (3,), (1, 1)]

# cli-session: CLI_PER_KIND commands of each kind the repository README shows
# (plus `eval chtop`), one weight per kind.  The mix is a choice, not measured
# usage.  The kinds run in this fixed order and the seed shuffles only within
# a kind, so the cold pass reads the same cache entries written by earlier
# commands for every seed: the kl-top tables n <= 4, read by
# `verify prologue-tables 4`.  (`verify vanishing` reads no jack_* file;
# every `eval ch` diagram has its own size.)
CLI_KINDS = ("kl-top", "census", "ch", "chtop", "R", "T", "verify")
CLI_PER_KIND = 5
CLI_NS = range(1, 6)           # kl-top n and census n, each once
CH_PI_SIZES = range(1, 5)      # |pi| of `eval ch`
CH_SIZES = range(5, 10)        # |lam| of `eval ch` and `eval chtop`, each once
CHTOP_N = 5
R_KS = range(3, 8)             # k of `eval R` and `eval T`, each once
SMALL_SIZES = range(1, 10)     # |lam| of `eval R` and `eval T`
CLI_SUITES = (("prologue-tables", 4), ("jack-examples", 4), ("vanishing", 4),
              ("catalan", 7), ("moment-cumulant", 3))


def load_goldens(path: str = GOLDENS) -> dict:
    """The stored values: "kl_top" maps n to a KLPoly JSON term list, "R"
    and "ch" map value_key(index, lam) to a Laurent JSON object."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["kl_top"] = {int(n): terms for n, terms in doc["kl_top"].items()}
    return doc


def value_key(index, lam: tuple) -> str:
    """Key of a golden value: "k|lam" for R_k, "pi|lam" for Ch_pi."""
    return f"{index if isinstance(index, int) else fmt(index)}|{fmt(lam)}"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def partitions(sizes) -> list[tuple]:
    from jacktop.young import partitions_of
    return [p for s in sizes for p in partitions_of(s)]


def fmt(p: tuple) -> str:
    return ",".join(map(str, p)) if p else "0"


def interleave(cold: list, warm: list) -> list:
    """c0 c1 w0 c2 w1 ... w_last, tagged: warm[i] follows cold[i + 1], so
    both kinds are spread over the whole round."""
    out = [["cold", *cold[0]]]
    for i in range(1, len(cold)):
        out += [["cold", *cold[i]], ["warm", *warm[i - 1]]]
    return out + [["warm", *warm[-1]]]


def top_map_inputs(seed: int, index: int) -> dict:
    """Queries are [kind, n, lam]; a warm query repeats a cold diagram."""
    rng = _rng("top-map", seed, index)
    cold = [[TOP_N, list(p)]
            for p in rng.sample(partitions(TOP_SIZES), TOP_QUERIES)]
    return {"n": TOP_N, "queries": interleave(cold, cold)}


def oracle_inputs(seed: int, index: int) -> dict:
    """Queries are [kind, pi, lam]; a warm query asks a second pi of a
    diagram already asked cold."""
    rng = _rng("oracle-full", seed, index)
    cold, warm = [], []
    lams = partitions([ORACLE_SIZE])
    for lam in rng.sample(lams, len(lams)):
        first, second = rng.sample(CLOSED_FORM_PIS, 2)
        cold.append([list(first), list(lam)])
        warm.append([list(second), list(lam)])
    return {"n": TOP_N, "size": ORACLE_SIZE, "queries": interleave(cold, warm)}


def cli_script(seed: int, index: int) -> list[list[str]]:
    """One pass of the cli-session workload: argv lists, without the cache."""
    rng = _rng("cli-session", seed, index)
    small = partitions(SMALL_SIZES)

    def fmt_flag() -> list[str]:
        return ["--format", rng.choice(("json", "text"))]

    by_kind = {
        "kl-top": [["kl-top", str(n), *fmt_flag()] for n in CLI_NS],
        "census": [["census", str(n), *fmt_flag()] for n in CLI_NS],
        "ch": [["eval", "ch", fmt(rng.choice(partitions(CH_PI_SIZES))),
                fmt(rng.choice(partitions([s])))] for s in CH_SIZES],
        "chtop": [["eval", "chtop", str(CHTOP_N),
                   fmt(rng.choice(partitions([s])))] for s in CH_SIZES],
        "R": [["eval", "R", str(k), fmt(rng.choice(small))] for k in R_KS],
        "T": [["eval", "T", str(k), fmt(rng.choice(small))] for k in R_KS],
        "verify": [["verify", suite, str(param)] for suite, param in CLI_SUITES],
    }
    cmds: list[list[str]] = []
    for kind in CLI_KINDS:
        rng.shuffle(by_kind[kind])
        cmds += by_kind[kind]
    return cmds


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of failure descriptions (empty when correct).

def check_table(table_json: list, golden_json: list, label: str) -> list[str]:
    """Equality with the golden, and nonnegative integer coefficients."""
    if table_json != golden_json:
        return [f"{label}: table differs from golden"]
    for term in table_json:
        c = Fraction(term["coeff"])
        if c.denominator != 1 or c < 0:
            return [f"{label}: coefficient {term} not a nonnegative integer"]
    return []


def check_top_map(result: dict, inputs: dict, goldens: dict) -> list[str]:
    from jacktop.exact import KLPoly, Laurent
    from jacktop.functionals import kl_evaluate
    golden = goldens["kl_top"][inputs["n"]]
    out = check_table(result["table"], golden, f"kl_top({inputs['n']})")
    table = KLPoly.from_json(golden)
    for (_, n, lam), value in zip(inputs["queries"], result["values"]):
        if Laurent.from_json(value) != kl_evaluate(table, tuple(lam)):
            out.append(f"ch_top_eval({n}, {lam}) != kl_evaluate")
    return out


def check_oracle(result: dict, inputs: dict, goldens: dict) -> list[str]:
    from jacktop.exact import KLPoly, Laurent
    from jacktop.verify import closed_form_character
    n = inputs["n"]
    full = KLPoly.from_json(result["table"])
    out = check_table(full.graded_part(n + 1).to_json(), goldens["kl_top"][n],
                      f"kl_expand_full({n}) top part")
    if not out and not full.graded_part(n).is_zero():
        out.append(f"kl_expand_full({n}): nonzero degree-{n} gap")
    for (_, pi, lam), value in zip(inputs["queries"], result["values"]):
        if Laurent.from_json(value) != closed_form_character(tuple(pi), tuple(lam)):
            out.append(f"jack_character({pi}, {lam}) != closed form")
    return out


def indecomposable_perms(m: int) -> int:
    """Permutations of m not fixing any {1..j}, j < m (OEIS A003319)."""
    a = [0, 1]
    for k in range(2, m + 1):
        a.append(factorial(k) - sum(factorial(j) * a[k - j] for j in range(1, k)))
    return a[m]


def census_ok(n: int, stdout: str, text: bool) -> bool:
    """The orbit census of transitive pairs in S_n: A003319(n + 1) distinct
    transitive pairs of permutations of {1..n}, each orbit of size (n-1)!."""
    if text:
        rows = [line.split() for line in stdout.splitlines()]
    else:
        rows = [[d["sigma1"], d["sigma2"], d["orbitSize"]]
                for d in json.loads(stdout)]
    pairs = {tuple(tuple(int(x) - 1 for x in p.split(",")) for p in row[:2])
             for row in rows}
    for pair in pairs:
        if any(sorted(p) != list(range(n)) for p in pair):
            return False
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            for j in (pair[0][i], pair[1][i]):
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) != n:
            return False
    return (len(pairs) == len(rows) == indecomposable_perms(n + 1)
            and all(int(row[2]) == factorial(n - 1) for row in rows))


def check_command(argv: list[str], stdout: str, goldens: dict) -> str | None:
    """Failure description for one CLI command's stdout, or None."""
    from jacktop import verify
    from jacktop.exact import KLPoly, Laurent, subst_gamma
    from jacktop.functionals import conversion_Q, kl_evaluate, s_functional
    from jacktop.young import parse_partition
    try:
        if argv[0] == "kl-top":
            golden = goldens["kl_top"][int(argv[1])]
            if argv[3] == "text":
                ok = stdout.strip() == KLPoly.from_json(golden).text()
            else:
                ok = json.loads(stdout) == golden
        elif argv[0] == "census":
            ok = census_ok(int(argv[1]), stdout, argv[3] == "text")
        elif argv[0] == "verify":
            report = json.loads(stdout)
            ok = report["pass"] is True and report["check"] == argv[1]
        else:
            kind, index, lam = argv[1], argv[2], parse_partition(argv[3])
            got = Laurent.from_json(json.loads(stdout))
            if kind == "chtop":
                golden = KLPoly.from_json(goldens["kl_top"][int(index)])
                ok = got == kl_evaluate(golden, lam)
            elif kind == "ch":
                pi = parse_partition(index)
                ok = got == Laurent.from_json(goldens["ch"][value_key(pi, lam)])
                try:
                    ok = ok and got == verify.closed_form_character(pi, lam)
                except ValueError:  # no closed form for this pi
                    pass
            elif kind == "R":
                k = int(index)
                ok = got == Laurent.from_json(goldens["R"][value_key(k, lam)])
            else:  # T_k through the smooth functionals: T_k = sum Q_j(g) S_j
                k = int(index)
                want = Laurent.zero()
                for j, q in conversion_Q(k).items():
                    want = want + subst_gamma(q) * s_functional(j, lam)
                ok = got == want
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{' '.join(argv)}: unreadable output ({exc})"
    return None if ok else f"{' '.join(argv)}: wrong output"
