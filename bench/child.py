"""One round of the top-map or oracle-full workload, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds the workload name, its generated inputs and, for a traced
round, the path to write spans to (with the time `import jacktop.cli` took).
Checks run after all timed calls, with tracing paused, and are part of
`wall_s` only.  Timed calls are scaled by speed probes (see Timer); `wall_s`
excludes the probes.  The last stdout line is the result.
"""

import time

T0 = time.monotonic()
import jacktop.cli  # noqa: E402

IMPORT_S = time.monotonic() - T0

import hashlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from jacktop import analysis, jackref, topdegree  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Timer:
    """Times calls; keeps raw and scaled seconds (speed.py).  A speed probe
    runs after each call and every PERIOD seconds during it (from a SIGALRM
    handler); probe time is subtracted from the call's time."""

    PERIOD = 0.25

    def __init__(self):
        self.speed = speed.SpeedLog()
        self.speed.probe()
        self.calls: list[tuple[str, float, float, float]] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.speed.probe())

    def time(self, kind: str, fn, *args):
        done = len(self.speed.probes)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        start = time.monotonic()
        try:
            value = fn(*args)
        finally:
            end = time.monotonic()
            signal.setitimer(signal.ITIMER_REAL, 0)
        during = sum(d for _, d in self.speed.probes[done:])
        self.calls.append((kind, start, end, end - start - during))
        self.speed.probe()
        return value

    def seconds(self) -> tuple[dict, dict]:
        """Raw and scaled seconds of the calls, by kind."""
        raw: dict[str, list[float]] = {"table": [], "cold": [], "warm": []}
        scaled: dict[str, list[float]] = {"table": [], "cold": [], "warm": []}
        for kind, start, end, seconds in self.calls:
            raw[kind].append(seconds)
            scaled[kind].append(self.speed.scaled(start, end))
        return raw, scaled


def top_map(inputs: dict, timer: Timer):
    table = timer.time("table", topdegree.kl_top, inputs["n"])
    query = lambda n, lam: topdegree.ch_top_eval(n, tuple(lam))
    return table.to_json(), query


def oracle_full(inputs: dict, timer: Timer):
    full = timer.time("table", analysis.kl_expand_full, inputs["n"])
    query = lambda pi, lam: jackref.jack_character(tuple(pi), tuple(lam),
                                                   bound=inputs["size"])
    return full.to_json(), query


def vmhwm_kb() -> int:
    """Peak resident set of this process image (not of the parent that
    spawned it, which getrusage would include)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(fh.read().split("VmHWM:")[1].split()[0])


ROUNDS = {"top-map": (top_map, workloads.check_top_map),
          "oracle-full": (oracle_full, workloads.check_oracle)}


def main() -> None:
    spec = json.loads(sys.argv[1])
    run, check = ROUNDS[spec["workload"]]
    rec = None
    if spec.get("trace_path"):
        rec = tracing.Recorder()
        tracing.install(rec)
    caches_before = tracing.cache_sizes()
    start = time.monotonic()
    inputs = spec["inputs"]
    timer = Timer()
    table, query = run(inputs, timer)
    values = [timer.time(kind, query, a, b).to_json()
              for kind, a, b in inputs["queries"]]
    growth = {k: v - caches_before[k] for k, v in tracing.cache_sizes().items()}
    if rec is not None:
        rec.enabled = False
    failures = check({"table": table, "values": values}, inputs,
                     workloads.load_goldens())
    end = time.monotonic()
    wall_s = end - start - timer.speed.probe_seconds()
    raw, scaled = timer.seconds()
    if rec is not None:
        tracing.dump(rec, spec["trace_path"],
                     {"cache_growth": growth, "import_s": IMPORT_S})
    digest = hashlib.sha256(json.dumps([table, values]).encode()).hexdigest()
    print(json.dumps({
        "scaled": {**scaled, "wall": [timer.speed.scaled(start, end)]},
        "raw": {**raw, "wall": [wall_s]}, "attempted": 1 + len(values),
        "failures": failures, "digest": digest,
        "vmhwm_kb": vmhwm_kb(),
    }))


if __name__ == "__main__":
    main()
