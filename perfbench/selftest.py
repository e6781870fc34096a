"""Determinism self-test of the benchmark.

Checks, per workload, that two rounds at one seed give identical simulated
end-to-end metrics and identical per-layer counts (tracer call counts and
simulator counters), and that another seed changes both -- proof that the
seed reaches the generated inputs.  Run from the repository root::

    python3 perfbench/selftest.py [workload ...]

Exits non-zero on the first failed check.  Takes a few minutes: every
round is a full-size round of the benchmark.
"""

from __future__ import annotations

import sys

from run import ROOT

sys.path.insert(0, str(ROOT / "src"))

from counters import layer_metrics  # noqa: E402
from run import run_round, simulated  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fingerprint(workload_class, seed: int) -> tuple[dict, dict]:
    """(simulated end-to-end metrics, per-layer counts) of one traced round."""

    tracer = Tracer()
    tracer.install()
    try:
        result = run_round(workload_class, seed, 0, tracer)
    finally:
        tracer.uninstall()
    if result["problems"]:
        raise SystemExit(f"{workload_class.name} seed {seed}: "
                         f"{result['problems']}")
    sim = simulated([result["outcome"]])
    metrics = layer_metrics(result["before"], result["after"], sim,
                            [result["layers"]])
    counts = {name: value for name, (value, unit) in metrics.items()
              if unit != "s"}
    return sim, counts


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        workload_class = WORKLOADS[name]
        first = fingerprint(workload_class, 1)
        again = fingerprint(workload_class, 1)
        other = fingerprint(workload_class, 2)
        for part, label in ((0, "simulated metrics"), (1, "per-layer counts")):
            if first[part] != again[part]:
                differ = sorted(key for key in first[part]
                                if first[part][key] != again[part][key])
                print(f"FAIL {name}: {label} differ at one seed: {differ}")
                return 1
            if first[part] == other[part]:
                print(f"FAIL {name}: {label} do not change with the seed")
                return 1
        print(f"ok   {name}: seed 1 repeats exactly; seed 2 differs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
