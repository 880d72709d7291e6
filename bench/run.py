"""jacktop benchmark: one workload, one seed, one timed or traced run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload top-map --seed 1 --seconds 30 --trace 0

Every program run happens in a fresh interpreter with PYTHONPATH pointing
at this checkout's src/, so the package's in-memory caches start cold; the
CLI workload gets a fresh cache directory under bench/results/.  Rounds
repeat until --seconds is used up (at least MIN_ROUNDS of them).

--trace 0 prints the end-to-end metrics; --trace 1 runs each round once
untraced and once traced (same inputs, outputs compared) and prints the
per-layer metrics and the tracing overhead.  Every run writes a results
file with the raw samples to bench/results/.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the exit code is 1 if
any check failed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

WORKLOADS = ("top-map", "oracle-full", "cli-session")
# The tail percentile of each workload is the highest that MIN_ROUNDS leaves
# at least ten samples beyond: 52 (top-map), 60 (oracle-full) and 105
# (cli-session) cold and warm samples per run.
MIN_ROUNDS = {"top-map": 4, "oracle-full": 2, "cli-session": 3}
TAIL = {"top-map": 80, "oracle-full": 83, "cli-session": 90}
# Set-up probes before the first round and after every round, so that the
# set-up median samples the whole run.
SETUP_PROBES = 5
CHILD_TIMEOUT = 150
# Peak resident set of the current process image, in KiB.  (getrusage's
# ru_maxrss would also count the parent, whose pages a spawned child shares
# until it execs.)
VMHWM = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
# What the `jacktop` console script runs, plus a last stderr line with VMHWM.
CONSOLE = ("import sys\nfrom jacktop.cli import main\ncode = main()\n"
           f"print('vmhwm_kb', {VMHWM}, file=sys.stderr)\nsys.exit(code)")
PROBE = "import time\nimport jacktop.cli\nprint(time.monotonic())"
# Time of an interpreter that starts and exits without jacktop, at the
# nominal speed: the speed reference for times of whole interpreter runs.
SPAWN_NOMINAL_S = 0.045
# cli-session times the speed reference after every third command: enough
# references within speed.WINDOW_S of each command, at a third of the cost.
CLI_PROBE_EVERY = 3

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "table_s": "s",
    "cold_ms_p50": "ms", "cold_ms_tail": "ms",
    "warm_ms_p50": "ms", "warm_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


ENV = _env()


def spawn(argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run a fresh interpreter to completion; (result, start, end) stamps."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-s", *argv], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return proc, t0, time.monotonic()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def spawn_reference() -> float:
    _, t0, t1 = spawn(["-c", "pass"])
    return t1 - t0


def spawn_log() -> speed.SpeedLog:
    log = speed.SpeedLog(spawn_reference, SPAWN_NOMINAL_S)
    log.probe()
    return log


class Tally:
    """Operations attempted and failure descriptions of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


# ---------------------------------------------------------------------------
# Rounds.  Each returns (samples, digest) and records its checks in the tally.

def setup_samples(count: int, samples: dict) -> None:
    """Seconds from spawning an interpreter until `import jacktop.cli`
    returns, raw and scaled (speed.py)."""
    log = spawn_log()
    spans = []
    for _ in range(count):
        proc, t0, t1 = spawn(["-c", PROBE])
        log.probe()
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import jacktop.cli:\n{proc.stderr}")
        spans.append((float(proc.stdout.split()[-1]) - t0, t0, t1))
    for raw, t0, t1 in spans:
        samples.setdefault("setup_s", []).append(raw * log.factor(t0, t1))
        samples.setdefault("raw.setup_s", []).append(raw)


def inproc_round(workload: str, inputs: dict, tally: Tally,
                 trace_path: str | None = None) -> tuple[dict, str]:
    spec = {"workload": workload, "inputs": inputs, "trace_path": trace_path}
    proc, _, _ = spawn([os.path.join(BENCH, "child.py"), json.dumps(spec)])
    ops = 1 + len(inputs["queries"])
    if proc.returncode != 0:
        tally.add(ops, [f"{workload} round exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-400:]}"])
        return {}, ""
    res = json.loads(proc.stdout.splitlines()[-1])
    tally.add(res["attempted"], res["failures"])
    samples = {}
    for prefix, times in (("", res["scaled"]), ("raw.", res["raw"])):
        samples.update({
            prefix + "table_s": times["table"], prefix + "wall_s": times["wall"],
            prefix + "cold_ms": [s * 1e3 for s in times["cold"]],
            prefix + "warm_ms": [s * 1e3 for s in times["warm"]]})
    samples["vmhwm_kb"] = [res["vmhwm_kb"]]
    return samples, res["digest"]


def cli_round(script: list[list[str]], tally: Tally, goldens: dict,
              trace_dir: str | None = None) -> tuple[dict, str]:
    """One session: the script cold, then warm, against a fresh cache."""
    os.makedirs(RESULTS, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=RESULTS)
    start = time.monotonic()
    log = spawn_log()
    runs: dict[str, list] = {"cold": [], "warm": []}
    try:
        for phase in ("cold", "warm"):
            for i, argv in enumerate(script):
                args = ["--cache-dir", cache_dir, *argv]
                if trace_dir is None:
                    cmd = ["-c", CONSOLE, *args]
                else:
                    cmd = [os.path.join(BENCH, "traced_cli.py"),
                           os.path.join(trace_dir, f"{phase}-{i}.bin"), *args]
                proc, t0, t1 = spawn(cmd)
                if i % CLI_PROBE_EVERY == CLI_PROBE_EVERY - 1:
                    log.probe()
                runs[phase].append((proc, t0, t1))
        bytes_written = sum(os.path.getsize(os.path.join(cache_dir, f))
                            for f in os.listdir(cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    failures = []
    for argv, (cold, *_), (warm, *_) in zip(script, runs["cold"], runs["warm"]):
        name = " ".join(argv)
        bad = None
        if cold.returncode != 0:
            bad = f"{name}: cold exit {cold.returncode} {cold.stderr[-200:]}"
        else:
            bad = workloads.check_command(argv, cold.stdout, goldens)
        if bad:
            failures.append(bad)
        if warm.returncode != 0:
            failures.append(f"{name}: warm exit {warm.returncode}")
        elif warm.stdout != cold.stdout:
            failures.append(f"{name}: warm stdout differs from cold")
        elif bad:
            failures.append(f"{name}: warm repeats the cold failure")
    tally.add(2 * len(script), failures)
    end = time.monotonic()
    wall = end - start - log.probe_seconds()
    samples = {"bytes_written": [bytes_written], "vmhwm_kb": [
        int(p.stderr.rsplit("vmhwm_kb ", 1)[1]) for phase in runs
        for p, *_ in runs[phase] if "vmhwm_kb " in p.stderr]}
    for prefix, scale in (("", True), ("raw.", False)):
        span = log.scaled if scale else (lambda t0, t1: t1 - t0)
        ms = {phase: [span(t0, t1) * 1e3 for _, t0, t1 in runs[phase]]
              for phase in runs}
        kltop = [m for argv, m in zip(script, ms["cold"]) if argv[0] == "kl-top"]
        samples.update({
            prefix + "wall_s": [log.scaled(start, end) if scale else wall],
            prefix + "table_s": [m / 1e3 for m in kltop],
            prefix + "cold_ms": ms["cold"], prefix + "warm_ms": ms["warm"]})
    digest = hashlib.sha256("\0".join(
        p.stdout for phase in ("cold", "warm") for p, *_ in runs[phase]
    ).encode()).hexdigest()
    return samples, digest


def make_round(workload: str, seed: int, goldens: dict):
    """round(index, tally, trace_target) for one workload and seed."""
    if workload == "cli-session":
        return lambda i, tally, trace=None: cli_round(
            workloads.cli_script(seed, i), tally, goldens, trace)
    make = (workloads.top_map_inputs if workload == "top-map"
            else workloads.oracle_inputs)
    return lambda i, tally, trace=None: inproc_round(
        workload, make(seed, i), tally, trace)


def keep_going(rounds: int, minimum: int, start: float, seconds: float) -> bool:
    """Another round if the minimum is not reached or it would end in time."""
    if rounds < minimum:
        return True
    elapsed = time.monotonic() - start
    return elapsed + elapsed / rounds <= seconds


# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, goldens: dict):
    tally = Tally()
    samples: dict[str, list] = {}
    setup_samples(1, {})  # writes the bytecode cache; not timed
    setup_samples(SETUP_PROBES, samples)
    run_round = make_round(workload, seed, goldens)
    start, rounds = time.monotonic(), 0
    while keep_going(rounds, MIN_ROUNDS[workload], start, seconds):
        got, _ = run_round(rounds, tally)
        for k, v in got.items():
            samples.setdefault(k, []).extend(v)
        rounds += 1
        setup_samples(SETUP_PROBES, samples)
    metrics = {**summary(samples, TAIL[workload]),
               "peak_rss_mb": max(samples.get("vmhwm_kb", [0])) / 1024}
    raw = {k[4:]: v for k, v in samples.items() if k.startswith("raw.")}
    extra = {"rounds": rounds, "raw_metrics": summary(raw, TAIL[workload]),
             "sample_counts": {k: len(v) for k, v in samples.items()}}
    return tally, metrics, E2E_UNITS, samples, extra


def summary(samples: dict, tail_percentile: int) -> dict:
    """Medians and tails of the timed samples."""
    def median(key):
        return statistics.median(samples[key]) if samples.get(key) else 0.0

    def tail(key):
        return (percentile(samples[key], tail_percentile)
                if samples.get(key) else 0.0)

    return {"setup_s": median("setup_s"), "wall_s": median("wall_s"),
            "table_s": median("table_s"),
            "cold_ms_p50": median("cold_ms"), "cold_ms_tail": tail("cold_ms"),
            "warm_ms_p50": median("warm_ms"), "warm_ms_tail": tail("warm_ms")}


def traced_run(workload: str, seed: int, seconds: float, goldens: dict):
    tally = Tally()
    run_round = make_round(workload, seed, goldens)
    span_dir = os.path.join(RESULTS, "spans", workload)
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    per_round: list[dict] = []
    start, rounds = time.monotonic(), 0
    while keep_going(rounds, 1, start, seconds):
        plain, plain_digest = run_round(rounds, tally)
        if workload == "cli-session":
            target = os.path.join(span_dir, f"round{rounds}")
            os.makedirs(target)
        else:
            target = os.path.join(span_dir, f"round{rounds}.bin")
        traced, traced_digest = run_round(rounds, tally, target)
        rounds += 1
        if not plain or not traced:
            continue
        if traced_digest != plain_digest:
            tally.add(1, [f"round {rounds - 1}: traced outputs differ"])
        paths = ([os.path.join(target, f) for f in sorted(os.listdir(target))]
                 if os.path.isdir(target) else [target])
        agg = tracing.merge([tracing.aggregate(p) for p in paths])
        overhead = traced["wall_s"][0] / plain["wall_s"][0]
        per_round.append(tracing.layer_metrics(
            agg, traced.get("bytes_written", [0])[0], overhead))
    metrics = {k: statistics.median(r[k] for r in per_round) if per_round else 0.0
               for k in tracing.LAYER_UNITS}
    return tally, metrics, tracing.LAYER_UNITS, {"per_round": per_round}, {
        "rounds": rounds, "span_dir": os.path.relpath(span_dir, ROOT)}


# ---------------------------------------------------------------------------

def provenance() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "jacktop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit_id = None
    try:  # only when ROOT itself is the top of a git work tree
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit_id = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit_id, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "nproc_affinity": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jacktop", "cli.py")):
        print(f"error: no jacktop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks import the package in this process
    load_before = os.getloadavg()
    started = datetime.datetime.now(datetime.timezone.utc)
    goldens = workloads.load_goldens()
    run = traced_run if args.trace else timed_run
    tally, metrics, units, samples, extra = run(
        args.workload, args.seed, args.seconds, goldens)
    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started.isoformat(),
        **provenance(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "tail_percentile": TAIL[args.workload],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": tally.failures[:50],
        "metrics": metrics, "samples": samples, **extra,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stamp = started.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:38s} {value:14.6g} {units[name]}")
    print(f"{args.workload:12s} {'fail_ratio':38s} {failed / attempted:14.6g} "
          f"({failed}/{attempted})")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
