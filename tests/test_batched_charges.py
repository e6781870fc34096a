"""Batched charge application equals the scalar charges it stands for.

``SimClock.charge_run`` and ``SimClock.charge_batch`` accumulate a whole
run of charges in a local ledger and write the clock and its statistics
back once.  Scalar :meth:`~repro.simclock.SimClock.charge` is the
reference: every seeded random charge program below runs twice on fresh
clock groups -- once through the batched calls, once with each batched
call replayed event by event through ``charge`` -- and the two must be
*bit-identical*: every :class:`~repro.simclock.ClockStats` label's count
and total (per domain and merged), every domain's timestamp, and the
cluster wall clock.
"""

from __future__ import annotations

import random

import pytest

from repro.simclock import ClockDomainGroup, CostModel

PRIMITIVES = ["sql_statement_base", "row_write", "row_read", "log_write",
              "token_generate", "daemon_dispatch", "disk_seek"]


def _stats_cells(stats) -> dict:
    """``{label: (count, total)}`` -- exact, no rounding."""

    return {label: (cell[0], cell[1])
            for label, cell in stats._cells.items()}


def _group_snapshot(group: ClockDomainGroup) -> dict:
    return {
        "global": group.global_now(),
        "domains": {name: domain.now()
                    for name, domain in group.domains.items()},
        "merged": _stats_cells(group.stats),
        "per_domain": {name: _stats_cells(domain.stats)
                       for name, domain in group.domains.items()},
    }


def _program(seed: int) -> list:
    """A seeded random program of charges, runs, batches and merges."""

    rng = random.Random(seed)
    steps = []
    for _ in range(300):
        node = rng.randrange(3)
        action = rng.randrange(4)
        if action == 0:
            steps.append(("charge", node, rng.choice(PRIMITIVES),
                          rng.randrange(1, 3), rng.choice([1.0, 0.1])))
        elif action == 1:
            steps.append(("run", node, rng.choice(PRIMITIVES),
                          rng.randrange(0, 6), rng.choice([1.0, 0.1]),
                          rng.choice([None, "scoped.run"])))
        elif action == 2:
            events = tuple(
                (rng.choice(PRIMITIVES), rng.choice([1.0, 0.1]),
                 rng.choice([None, "scoped.batch"]))
                for _ in range(rng.randrange(1, 4)))
            steps.append(("batch", node, events, rng.randrange(0, 5)))
        else:
            # Cross-domain merges between charges, so ledger write-backs
            # interleave with externally moved clocks.
            steps.append(("sync", node, rng.randrange(3)))
    return steps


def _execute(steps: list, *, batched: bool) -> dict:
    group = ClockDomainGroup(CostModel())
    domains = [group.domain(f"node{index}") for index in range(3)]
    compiled = {}
    for step in steps:
        kind, domain = step[0], domains[step[1]]
        if kind == "charge":
            _, _, primitive, times, scale = step
            domain.charge(primitive, times=times, scale=scale)
        elif kind == "run":
            _, _, primitive, times, scale, label = step
            if batched:
                domain.charge_run(primitive, times, scale=scale, label=label)
            else:
                for _ in range(times):
                    domain.charge(primitive, scale=scale, label=label)
        elif kind == "batch":
            _, _, events, cycles = step
            if batched:
                key = (domain.name, events)
                if key not in compiled:
                    compiled[key] = domain.compile_charges(events)
                domain.charge_batch(compiled[key], cycles)
            else:
                for _ in range(cycles):
                    for primitive, scale, label in events:
                        domain.charge(primitive, scale=scale, label=label)
        else:
            domains[step[2]].sync_to(domain.send_time())
    return _group_snapshot(group)


class TestChargeProgramIdentity:
    """Seeded random programs: batched calls vs scalar ``charge`` replay."""

    @pytest.mark.parametrize("seed", [7, 20260807, 424242])
    def test_batched_calls_match_scalar_charges(self, seed):
        steps = _program(seed)
        assert _execute(steps, batched=True) == \
            _execute(steps, batched=False)

    def test_charge_run_returns_the_charged_total(self):
        group = ClockDomainGroup(CostModel())
        batched = group.domain("a")
        scalar = group.domain("b")
        charged = batched.charge_run("row_write", 4, scale=0.1)
        expected = 0.0
        for _ in range(4):
            expected += scalar.charge("row_write", scale=0.1)
        assert charged == expected
        assert batched.now() == scalar.now()

    def test_empty_runs_and_batches_charge_nothing(self):
        group = ClockDomainGroup(CostModel())
        domain = group.domain("a")
        assert domain.charge_run("row_read", 0) == 0.0
        domain.charge_batch(domain.compile_charges(
            [("row_read", 1.0, None)]), 0)
        domain.charge_batch(domain.compile_charges([]), 3)
        assert domain.now() == 0.0
        assert _stats_cells(domain.stats) == {}
        assert _stats_cells(group.stats) == {}
