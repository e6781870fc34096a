"""The repository benchmark: one workload, measured from outside.

Run from the repository root::

    python3 perfbench/run.py --workload web-read --seed 1 --seconds 30 --trace 0

A run repeats *rounds* of the workload until ``--seconds`` of wall time
have passed.  Each round builds a fresh deployment, drives the closed loop,
and checks the outputs.  Round ``k`` draws its inputs from the sub-seed
``(seed, k mod SIM_ROUNDS)``: the simulated metrics pool the first
``SIM_ROUNDS`` rounds (so they are fixed by ``--seed`` alone), and every
later round must reproduce its namesake's simulated outcome exactly.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced rounds of sub-seed 0 and prints the per-layer metrics
instead (see ``README.md``).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Rounds with distinct sub-seeds whose simulated outcomes are pooled.
SIM_ROUNDS = 4
#: Set-ups timed per run at least (rounds plus set-up-only repetitions).
MIN_SETUPS = 9

#: The end-to-end metrics gated by ``BENCHMARK.json``.  Every one is never
#: zero on any workload; ``error_rate`` is printed but not gated because
#: every workload is built so that no operation fails.
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb", "ops_per_sim_s",
              "read_p50_sim_ms", "read_p99_sim_ms", "write_p50_sim_ms",
              "write_p99_sim_ms")


def round_seed(seed: int, index: int) -> int:
    """The input seed of round *index* of a run at *seed*."""

    import numpy as np

    sequence = np.random.SeedSequence([seed, index % SIM_ROUNDS])
    return int(sequence.generate_state(1)[0])


def outcome(workload) -> dict:
    """The simulated outcome of one round, exactly as the program gave it."""

    pool, log = workload.pool, workload.log
    if len(log.kinds) != len(pool.latency.samples):
        raise RuntimeError("operation log and latency samples disagree")
    return {"kinds": tuple(log.kinds),
            "latency": tuple(pool.latency.samples),
            "queue": tuple(pool.queue_delay.samples),
            "elapsed_s": pool.elapsed_s,
            "failed": dict(sorted(log.failed.items()))}


def simulated(outcomes: list[dict]) -> dict:
    """End-to-end simulated figures pooled over *outcomes* (ms, counts)."""

    import numpy as np

    def percentile(samples, q):
        return float(np.percentile(samples, q)) if samples else 0.0

    reads, writes, queue = [], [], []
    failures: dict[str, int] = {}
    elapsed = 0.0
    for result in outcomes:
        for kind, latency in zip(result["kinds"], result["latency"]):
            (reads if kind.startswith("read") else writes).append(
                latency * 1000.0)
        queue.extend(delay * 1000.0 for delay in result["queue"])
        elapsed += result["elapsed_s"]
        for name, count in result["failed"].items():
            failures[name] = failures.get(name, 0) + count
    attempted = len(reads) + len(writes)
    failed = sum(failures.values())
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "error_rate": failed / attempted,
        "ops_per_sim_s": (attempted - failed) / elapsed,
        "elapsed_sim_ms": elapsed * 1000.0,
        "reads": len(reads),
        "read_p50_sim_ms": percentile(reads, 50),
        "read_p99_sim_ms": percentile(reads, 99),
        "writes": len(writes),
        "write_p50_sim_ms": percentile(writes, 50),
        "write_p99_sim_ms": percentile(writes, 99),
        "queue_p50_sim_ms": percentile(queue, 50),
        "queue_p99_sim_ms": percentile(queue, 99),
    }


def run_round(workload_class, seed: int, index: int, tracer=None) -> dict:
    """Set up, drive and check one round; returns its measurements.

    The round's deployment is dropped before returning, so it does not
    stay alive into the next round and inflate the peak RSS.  Automatic
    garbage collection is off inside the round and a full collection runs
    before it, so collector pauses neither land in the timed phases nor
    depend on what an earlier round left behind.
    """

    from counters import snapshot

    gc.collect()
    gc.disable()
    try:
        workload = workload_class(round_seed(seed, index))
        if tracer is not None:
            workload.operation_hook = tracer.wrap_operation
        started = perf_counter()
        workload.setup()
        setup_s = perf_counter() - started
        before = snapshot(workload)
        if tracer is not None:
            tracer.reset()
        started = perf_counter()
        workload.run()
        run_s = perf_counter() - started
        # Per-layer totals cover the closed loop only, not the checks.
        layers = tracer.totals() if tracer is not None else None
        after = snapshot(workload)
        result = outcome(workload)
        problems = workload.check()
    finally:
        gc.enable()
    completed = len(result["kinds"]) - sum(result["failed"].values())
    return {"setup_s": setup_s, "ops_per_s": completed / run_s,
            "outcome": result, "problems": problems,
            "before": before, "after": after, "layers": layers}


def setup_only(workload_class, seed: int, index: int) -> float:
    """Wall time of one more set-up, under the same GC policy as a round."""

    gc.collect()
    gc.disable()
    try:
        workload = workload_class(round_seed(seed, index))
        started = perf_counter()
        workload.setup()
        return perf_counter() - started
    finally:
        gc.enable()


def _rounds_until(seconds: float, make_round, minimum: int) -> list:
    started = perf_counter()
    rounds = []
    while len(rounds) < minimum or perf_counter() - started < seconds:
        rounds.append(make_round(len(rounds)))
    return rounds


def _repeat_problems(rounds: list, period: int) -> list[str]:
    """Rounds of one sub-seed must have identical simulated outcomes."""

    problems = []
    for index in range(period, len(rounds)):
        if rounds[index]["outcome"] != rounds[index % period]["outcome"]:
            problems.append(f"round {index} did not reproduce the simulated "
                            f"outcome of round {index % period} (same inputs)")
    return problems


def end_to_end(workload_class, seed: int, seconds: float):
    rounds = _rounds_until(
        seconds, lambda index: run_round(workload_class, seed, index),
        minimum=SIM_ROUNDS)
    problems = [problem for r in rounds for problem in r["problems"]]
    problems += _repeat_problems(rounds, SIM_ROUNDS)
    sim = simulated([r["outcome"] for r in rounds[:SIM_ROUNDS]])
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_only(workload_class, seed, len(setups)))
    rates = [r["ops_per_s"] for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "error_rate": (sim["error_rate"], "ratio"),
        "ops_per_sim_s": (sim["ops_per_sim_s"], "1/sim_s"),
        "read_p50_sim_ms": (sim["read_p50_sim_ms"], "sim_ms"),
        "read_p99_sim_ms": (sim["read_p99_sim_ms"], "sim_ms"),
        "write_p50_sim_ms": (sim["write_p50_sim_ms"], "sim_ms"),
        "write_p99_sim_ms": (sim["write_p99_sim_ms"], "sim_ms"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"median of {len(rounds)} rounds: "
                     + " ".join(f"{rate:.0f}" for rate in rates),
        "peak_rss_mb": "whole process",
        "error_rate": f"{sim['failed']} of {sim['attempted']} "
                      f"{sim['failures'] or ''}",
        "ops_per_sim_s": f"{sim['attempted'] - sim['failed']} ops in "
                         f"{SIM_ROUNDS} rounds",
        "read_p50_sim_ms": f"n={sim['reads']}",
        "read_p99_sim_ms": f"n={sim['reads']}",
        "write_p50_sim_ms": f"n={sim['writes']}",
        "write_p99_sim_ms": f"n={sim['writes']}",
    }
    return rounds, metrics, notes, problems


def per_layer(workload_class, seed: int, seconds: float):
    from counters import layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    traced_totals = []

    def make_round(index):
        if index % 2 == 0:
            tracer.uninstall()
            return run_round(workload_class, seed, 0)
        tracer.install()
        result = run_round(workload_class, seed, 0, tracer)
        traced_totals.append(result["layers"])
        if len(traced_totals) == 1:
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{workload_class.name}-"
                                     f"seed{seed}.json")
        return result

    try:
        rounds = _rounds_until(seconds, make_round, minimum=2)
    finally:
        tracer.uninstall()
    plain, traced = rounds[0::2], rounds[1::2]
    problems = [problem for r in rounds for problem in r["problems"]]
    problems += [problem + " (tracing must not change simulated time)"
                 for problem in _repeat_problems(rounds, 1)]
    calls = [{layer: totals[0] for layer, totals in t.items()}
             for t in traced_totals]
    if any(other != calls[0] for other in calls[1:]):
        problems.append("per-layer call counts differ between traced rounds")
    first = plain[0]
    metrics = layer_metrics(first["before"], first["after"],
                            simulated([first["outcome"]]), traced_totals)
    untraced = statistics.median(r["ops_per_s"] for r in plain)
    traced_rate = statistics.median(r["ops_per_s"] for r in traced)
    metrics["tracing.ops_per_s"] = (traced_rate, "1/s")
    metrics["tracing.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["tracing.slowdown"] = (untraced / traced_rate, "x")
    notes = {"tracing.ops_per_s": f"median of {len(traced)} traced rounds",
             "tracing.untraced_ops_per_s":
                 f"median of {len(plain)} untraced rounds"}
    return rounds, metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_class = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    rounds, metrics, notes, problems = measure(workload_class, args.seed,
                                               args.seconds)

    loop = workload_class.loop
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  closed loop: {loop.sessions} sessions x "
          f"{loop.ops_per_session} ops, admission limit "
          f"{loop.admission_limit}, think {loop.think_ms} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit:9s} {notes.get(name, '')}")
    for problem in problems:
        print(f"  MISMATCH: {problem}")
    correct = not problems
    reported = metrics if args.trace else \
        {name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r["outcome"]["kinds"]) for r in rounds),
        "failed": sum(sum(r["outcome"]["failed"].values()) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
