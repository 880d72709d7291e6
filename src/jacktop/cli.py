"""Command-line front end.

Subcommands: ``kl-top`` prints the g/R expansion of the top-degree part,
``eval`` evaluates one of the diagram functionals, ``census`` dumps the
orbit census, and ``verify`` runs a named identity suite.

Exit codes: 0 success, 1 usage or parse error, 2 budget violation,
3 verification failure.  The size budget and the disk cache are settled
here: the library takes n of any size, and reads cache.ACTIVE and the
worker count of maps.set_jobs, which main sets for one call only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cache, jackref
from .exact import KLPoly, Laurent
from .functionals import free_cumulant, s_functional, t_functional
from .jackref import BoundExceeded, jack_character
from .maps import format_perm, orbit_census, perm_from_cycle_type, set_jobs
from .topdegree import ch_top_eval, cumulant_K, kl_top, moment_M
from .verify import SUITES, run_suite
from .young import NotDecreasing, parse_partition, size

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3

DEFAULT_BUDGET = 6

# The most boxes of the diagram of eval S and T, which take one Laurent
# power per box (`eval S 8 1000` takes about 0.9 s).
MAX_BOXES = 1000


class BudgetExceeded(ValueError):
    """A command asks for more than --budget allows."""


def check_budget(n: int, budget: int) -> None:
    """The n of kl-top, eval chtop and census: at least 1, at most budget."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > budget:
        raise BudgetExceeded(f"n = {n} exceeds budget {budget}")


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Attached to the main parser with real defaults and to every subparser
    # with SUPPRESS, so the flags are accepted on either side of the command.
    d = (lambda _: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--cache-dir", metavar="PATH", default=d(None),
                        help="directory for JSON artifact caching")
    parser.add_argument("--budget", type=int, metavar="N",
                        default=d(DEFAULT_BUDGET),
                        help="size budget for map enumeration")
    parser.add_argument("--jobs", type=int, metavar="K", default=d(1),
                        help="worker processes for the pair scan of census"
                             " and verify orbits")
    parser.add_argument("--format", choices=("json", "text"),
                        default=d("json"), help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacktop",
        description="Exact top-degree Jack character computations")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        _add_common(p, suppress=True)
        return p

    p = command("kl-top", "g/R expansion of the top-degree part")
    p.add_argument("n", type=int)

    p = command("eval", "evaluate a functional on a diagram")
    p.add_argument("kind", choices=("ch", "chtop", "R", "T", "S", "M", "K"))
    p.add_argument("index", help="partition for ch/M/K, integer otherwise")
    p.add_argument("lam", help="partition, e.g. 4,2,1 (0 or '' for empty)")

    p = command("census", "orbit census of transitive pairs")
    p.add_argument("n", type=int)

    p = command("verify", "run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("param", type=int, nargs="?", default=None)

    return parser


def _print(value: Laurent | KLPoly, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(value.to_json()))
    else:
        print(value.text())


def _cmd_eval(args) -> int:
    lam = parse_partition(args.lam)
    jack_bound = max(jackref.DEFAULT_SIZE_BOUND, args.budget + 3)
    kind = args.kind
    if kind in ("ch", "M", "K"):
        index = parse_partition(args.index)
    else:
        index = int(args.index)
    if kind in ("S", "T") and size(lam) > MAX_BOXES:
        raise BudgetExceeded(f"|lambda| = {size(lam)} exceeds bound {MAX_BOXES}")
    if kind == "ch":
        value = jack_character(index, lam, bound=jack_bound)
    elif kind == "chtop":
        check_budget(index, args.budget)
        value = ch_top_eval(index, lam)
    elif kind in ("R", "T", "S"):
        if index > args.budget + 2:
            raise BudgetExceeded(f"{kind} index {index} exceeds budget")
        functional = {"R": free_cumulant, "T": t_functional,
                      "S": s_functional}[kind]
        value = functional(index, lam)
    else:
        if size(index) > args.budget:
            raise BudgetExceeded(f"|pi| = {size(index)} exceeds budget")
        perm = perm_from_cycle_type(index)
        value = moment_M(perm, lam) if kind == "M" else cumulant_K(perm, lam)
    _print(value, args.format)
    return EXIT_OK


def _cmd_census(args) -> int:
    check_budget(args.n, args.budget)
    census = orbit_census(args.n)
    if args.format == "json":
        print(json.dumps([{"sigma1": format_perm(a), "sigma2": format_perm(b),
                           "orbitSize": size_} for (a, b), size_ in census]))
    else:
        for (a, b), size_ in census:
            print(f"{format_perm(a)}  {format_perm(b)}  {size_}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    disk = None
    if args.cache_dir:
        try:
            disk = cache.Cache(args.cache_dir)
        except OSError as exc:
            print(f"error: cannot use --cache-dir: {exc}", file=sys.stderr)
            return EXIT_USAGE
    cache.ACTIVE = disk
    set_jobs(args.jobs)
    try:
        if args.command == "kl-top":
            check_budget(args.n, args.budget)
            _print(kl_top(args.n), args.format)
            return EXIT_OK
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "census":
            return _cmd_census(args)
        report = run_suite(args.suite, args.param)
        print(json.dumps(report, default=_json_default))
        return EXIT_OK if report["pass"] else EXIT_VERIFY
    except (BudgetExceeded, BoundExceeded) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotDecreasing, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        cache.ACTIVE = None
        jackref.M_VECTORS.clear()
        set_jobs(1)


def _json_default(obj):
    if isinstance(obj, (Laurent, KLPoly)):
        return obj.to_json()
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


if __name__ == "__main__":
    sys.exit(main())
