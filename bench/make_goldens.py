"""Write bench/goldens.json, the stored values the benchmark's checks use.

    PYTHONPATH=src python3 bench/make_goldens.py

The file holds kl_top(n) for n <= 6, R_k(lam) for the `eval R` commands of
cli-session and Ch_pi(lam) for its `eval ch` commands, all computed at the
commit that added the benchmark.  A check that fails later points at a change
in the package; the file is not rewritten to make a check pass.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from jacktop.functionals import free_cumulant  # noqa: E402
from jacktop.jackref import jack_character  # noqa: E402
from jacktop.topdegree import kl_top  # noqa: E402


def value_lines(name: str, values: dict) -> str:
    """One golden per line, so the file stays readable in a diff."""
    rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in values.items()]
    return f' "{name}": {{\n' + ",\n".join(rows) + "\n }"


def main() -> None:
    tables = {str(n): kl_top(n).to_json() for n in range(1, workloads.TOP_N + 1)}
    r_values = {workloads.value_key(k, lam): free_cumulant(k, lam).to_json()
                for k in workloads.R_KS
                for lam in workloads.partitions(workloads.SMALL_SIZES)}
    bound = max(workloads.CH_SIZES)
    ch_values = {workloads.value_key(pi, lam):
                 jack_character(pi, lam, bound=bound).to_json()
                 for pi in workloads.partitions(workloads.CH_PI_SIZES)
                 for lam in workloads.partitions(workloads.CH_SIZES)}
    source = ("kl_top(n), free_cumulant(k, lam) and jack_character(pi, lam) "
              "at the commit that added this benchmark")
    sections = {"kl_top": tables, "R": r_values, "ch": ch_values}
    text = ("{\n" f' "source": {json.dumps(source)},\n'
            + ",\n".join(value_lines(k, v) for k, v in sections.items())
            + "\n}\n")
    json.loads(text)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    main()
