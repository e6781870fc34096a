"""Bulk per-link fast paths vs their scalar reference implementations.

Three module flags gate the million-link-tier fast paths:

* :data:`repro.storage.database.FAST_SCANS` -- the unlocked point-SELECT
  short cut;
* :data:`repro.datalinks.engine.BULK_TOKEN_HANDOUT` -- the batched
  ``get_datalink_many`` host transaction that mints a whole read plan's
  tokens without the per-call session/engine dispatch frames;
* :data:`repro.workloads.audit.BATCHED_AUDIT` -- the committed-link audit
  with its per-row machinery hoisted out of the loop.

Every fast path must be *bit-identical* to the scalar reference it
replaces: same result values, same token streams, and the same simulated
ledger -- every :class:`~repro.simclock.ClockStats` label's count and
total, every domain timestamp, and the cluster wall clock.  These tests
assert that first on seeded random programs against twin reference
implementations, then flag-on vs flag-off on the real E1/E9/E14
smoke-configuration workloads (E14 includes the end-of-run audit).
"""

from __future__ import annotations

import random

import pytest

import repro.datalinks.engine as engine_module
import repro.storage.database as database_module
import repro.workloads.audit as audit_module
from repro.errors import SchemaError
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType

#: The fast-path flags toggled together by the workload-level tests.
FLAGS = ((database_module, "FAST_SCANS"),
         (engine_module, "BULK_TOKEN_HANDOUT"),
         (audit_module, "BATCHED_AUDIT"))


def _stats_cells(stats) -> dict:
    """``{label: (count, total)}`` -- exact, no rounding."""

    return {label: (cell[0], cell[1])
            for label, cell in stats._cells.items()}


def _group_snapshot(group) -> dict:
    return {
        "global": group.global_now(),
        "domains": {name: domain.now()
                    for name, domain in group.domains.items()},
        "merged": _stats_cells(group.stats),
        "per_domain": {name: _stats_cells(domain.stats)
                       for name, domain in group.domains.items()},
    }


def _with_flags(monkeypatch, value: bool, scenario):
    for module, name in FLAGS:
        monkeypatch.setattr(module, name, value)
    return scenario()


def _make_docs_db(clock=None) -> Database:
    db = Database("fastpaths", clock if clock is not None else SimClock())
    db.create_table(TableSchema("docs", [
        Column("k", DataType.INTEGER, nullable=False),
        Column("v", DataType.INTEGER),
        Column("w", DataType.INTEGER),
    ], primary_key=("k",)))
    db.create_index("docs_by_v", "docs", ("v",))
    return db


class TestScanMaxIdentity:
    """``scan_max`` vs a full-scan maximum, across arbitrary mutations.

    One seeded mutation program runs against a database; at every probe
    step the value :meth:`Database.scan_max` returns for the primary key
    must equal the maximum over a full scan -- including across mutations
    that bypass the Database facade entirely (direct heap inserts, the way
    replication redo lands rows), which must invalidate the cached maximum
    through the heap's mutation counter.  Every probe is charged like a
    DBMS ``MAX(pk)``: exactly one ``sql_statement_base`` and one
    ``index_probe``, however many rows the table holds.
    """

    def _program(self, seed: int):
        rng = random.Random(seed)
        ops = []
        next_key = 0
        live = []
        for step in range(150):
            action = rng.randrange(8)
            if action < 4:
                value = None if rng.random() < 0.15 else rng.randrange(10_000)
                ops.append(("insert", next_key, value))
                live.append(next_key)
                next_key += 1
            elif action == 4 and live:
                ops.append(("delete", live.pop(rng.randrange(len(live)))))
            elif action == 5:
                # A redo-style mutation that bypasses the Database facade:
                # the heap sees it, the statement layer never does.
                ops.append(("bypass", 10_000 + step, rng.randrange(10_000)))
            else:
                ops.append(("probe",))
        ops.append(("probe",))
        return ops

    @pytest.mark.parametrize("seed", [11, 20260807, 555001])
    def test_matches_full_scan_reference(self, seed):
        db = _make_docs_db()
        heap = db._plan("docs").heap
        probes = 0
        for op in self._program(seed):
            if op[0] == "insert":
                db.insert("docs", {"k": op[1], "v": op[2], "w": op[1] % 7})
            elif op[0] == "delete":
                db.delete("docs", {"k": op[1]})
            elif op[0] == "bypass":
                heap.insert({"k": op[1], "v": op[2], "w": None})
            else:
                keys = [row["k"] for _, row in heap.scan_live()]
                before = _stats_cells(db.clock.stats)
                got = db.scan_max("docs", "k")
                assert got == (max(keys) if keys else None)
                after = _stats_cells(db.clock.stats)
                charged = {label: (cell[0] - before.get(label, (0, 0.0))[0])
                           for label, cell in after.items()
                           if cell != before.get(label)}
                assert charged == {"sql_statement_base": 1, "index_probe": 1}
                probes += 1
        assert probes > 10

    def test_charge_is_independent_of_table_size(self):
        ledgers = []
        for size in (1, 10, 5_000):
            db = _make_docs_db()
            db.insert_many("docs", [{"k": key, "v": None, "w": None}
                                    for key in range(size)])
            db.clock = SimClock()      # a fresh ledger for the probe alone
            assert db.scan_max("docs", "k") == size - 1
            ledgers.append((_stats_cells(db.clock.stats), db.clock.now()))
        assert ledgers[0] == ledgers[1] == ledgers[2]

    def test_rejects_non_key_columns(self):
        db = _make_docs_db()
        db.insert("docs", {"k": 1, "v": 2, "w": 3})
        with pytest.raises(SchemaError):
            db.scan_max("docs", "v")      # secondary-indexed, not the key
        with pytest.raises(SchemaError):
            db.scan_max("docs", "w")      # unindexed

    def test_warm_tracker_survives_facade_inserts(self):
        db = _make_docs_db(SimClock())
        for key in range(20):
            db.insert("docs", {"k": key * 3, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 57
        # Facade inserts keep the tracker warm incrementally ...
        db.insert("docs", {"k": 900, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 900
        # ... and a bypassing heap mutation forces the rescan.
        db._plan("docs").heap.insert({"k": 1234, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 1234

    def test_tracker_invalidated_by_crash_recovery(self):
        # A crash rebuilds the catalog with fresh heaps whose mutation
        # counters restart at zero; a tracker taken before the crash must
        # not validate against the new heap's coincidentally equal count
        # (the bug showed up as duplicate token-entry ids after failover).
        db = _make_docs_db(SimClock())
        db.insert("docs", {"k": 10, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 10
        db.wal.flush()
        db.crash()
        db.recover()
        db.insert("docs", {"k": 20, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 20

    def test_tracker_invalidated_by_restore(self):
        db = _make_docs_db(SimClock())
        db.insert("docs", {"k": 10, "v": None, "w": None})
        image = db.backup("before")
        db.insert("docs", {"k": 99, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 99
        db.restore(image)
        db.insert("docs", {"k": 20, "v": None, "w": None})
        assert db.scan_max("docs", "k") == 20


class TestPointSelectIdentity:
    """Unlocked point selects, flag on vs flag off, across where shapes."""

    _WHERE_SHAPES = (
        {"k": 3},            # single-PK hit
        {"k": 999},          # single-PK miss
        {"v": 6},            # secondary-index bucket (duplicates)
        {"v": -1},           # secondary-index miss
        {"w": 2},            # unindexed column: general-path fallback
        {"k": 3, "v": 9},    # two-column where: general-path fallback
        None,                # full scan
        {},                  # empty where: general path
    )

    def _scenario(self, seed: int) -> tuple:
        rng = random.Random(seed)
        db = _make_docs_db()
        for key in range(40):
            db.insert("docs", {"k": key, "v": (key % 10) * 3, "w": key % 5})
        for victim in rng.sample(range(40), 6):
            db.delete("docs", {"k": victim})
        results = []
        for step in range(60):
            where = self._WHERE_SHAPES[rng.randrange(len(self._WHERE_SHAPES))]
            results.append(db.select("docs",
                                     dict(where) if where is not None
                                     else None, lock=False))
        # Locked transactional selects must bypass the short cut entirely.
        txn = db.begin()
        results.append(db.select("docs", {"k": 3}, txn))
        db.commit(txn)
        return results, _stats_cells(db.clock.stats), db.clock.now()

    @pytest.mark.parametrize("seed", [5, 20260807, 909090])
    def test_fast_path_matches_general_path(self, seed, monkeypatch):
        fast = _with_flags(monkeypatch, True, lambda: self._scenario(seed))
        reference = _with_flags(monkeypatch, False,
                                lambda: self._scenario(seed))
        assert fast == reference


class TestBulkHandoutTokenStream:
    """``get_datalink_many`` vs the scalar per-where handout loop."""

    _WHERES = ({"file_id": 3}, {"file_id": 1}, {"file_id": 3},
               {"file_id": 99}, {"file_id": 7}, {"file_id": 1},
               {"file_id": 0})

    def _scenario(self) -> tuple:
        from repro.bench.experiments import FILES_TABLE, build_microsystem
        from repro.datalinks.control_modes import ControlMode

        system, _, _ = build_microsystem(ControlMode.RDB, size=4096, files=10)
        urls = system.engine.get_datalink_many(
            FILES_TABLE, [dict(where) for where in self._WHERES], "doc",
            access="read")
        return urls, _group_snapshot(system.clocks)

    def test_urls_and_ledger_match_scalar_reference(self, monkeypatch):
        fast = _with_flags(monkeypatch, True, self._scenario)
        reference = _with_flags(monkeypatch, False, self._scenario)
        urls, _ = fast
        assert urls[3] is None          # the miss stays a miss
        assert all(url is not None for index, url in enumerate(urls)
                   if index != 3)
        assert fast == reference

    def test_write_access_errors_match_scalar_reference(self, monkeypatch):
        from repro.bench.experiments import FILES_TABLE, build_microsystem
        from repro.datalinks.control_modes import ControlMode
        from repro.errors import DataLinksError

        def attempt():
            system, _, _ = build_microsystem(ControlMode.RDB, size=1024,
                                             files=2)
            # rdb blocks writes: the bulk path must raise the same
            # refusal, at the same point, as the scalar handout.
            with pytest.raises(DataLinksError) as excinfo:
                system.engine.get_datalink_many(
                    FILES_TABLE, [{"file_id": 0}], "doc", access="write")
            return str(excinfo.value)

        fast = _with_flags(monkeypatch, True, attempt)
        reference = _with_flags(monkeypatch, False, attempt)
        assert fast == reference

    def test_flag_actually_gates_the_path(self, monkeypatch):
        """Sanity: the reference mode really routes through ``get_datalink``."""

        from repro.bench.experiments import FILES_TABLE, build_microsystem
        from repro.datalinks.control_modes import ControlMode

        calls = []
        original = engine_module.DataLinksEngine.get_datalink

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(engine_module.DataLinksEngine, "get_datalink",
                            counting)
        system, _, _ = build_microsystem(ControlMode.RDB, size=1024, files=4)
        wheres = [{"file_id": index} for index in range(4)]
        monkeypatch.setattr(engine_module, "BULK_TOKEN_HANDOUT", False)
        system.engine.get_datalink_many(FILES_TABLE, wheres, "doc")
        assert len(calls) == 4
        calls.clear()
        monkeypatch.setattr(engine_module, "BULK_TOKEN_HANDOUT", True)
        system.engine.get_datalink_many(FILES_TABLE, wheres, "doc")
        assert calls == []


class TestSmokeWorkloadLedgerIdentity:
    """The real E1/E9/E14 smoke configurations, all flags on vs all off."""

    def _run_e1(self) -> dict:
        from repro.bench.experiments import FILES_TABLE, build_microsystem
        from repro.datalinks.control_modes import ControlMode

        system, _, _ = build_microsystem(ControlMode.RDB, size=4096, files=10)
        for _ in range(2):
            system.engine.select(FILES_TABLE, {"file_id": 3}, lock=False)
            system.engine.get_datalink(FILES_TABLE, {"file_id": 3}, "doc",
                                       access="read")
        system.engine.get_datalink_many(
            FILES_TABLE, [{"file_id": index} for index in (1, 3, 3, 99)],
            "doc", access="read")
        return _group_snapshot(system.clocks)

    def _run_e9(self) -> dict:
        from repro.bench.experiments import SMOKE_PARAMS
        from repro.datalinks.control_modes import ControlMode
        from repro.workloads.webserver import WebServerWorkload, WebSiteConfig

        params = SMOKE_PARAMS["E9"]
        config = WebSiteConfig(pages=params["pages"],
                               operations=params["operations"],
                               page_size=params["page_size"],
                               file_servers=2,
                               control_mode=ControlMode.RDD,
                               clients=2)
        workload = WebServerWorkload(config).setup()
        workload.run()
        return _group_snapshot(workload.system.clocks)

    def _run_e14(self) -> dict:
        from repro.bench.experiments import SMOKE_PARAMS
        from repro.datalinks.balancer import BalancerConfig
        from repro.workloads.hotspot import HotspotConfig, HotspotWorkload

        params = SMOKE_PARAMS["E14"]
        config = HotspotConfig(
            shards=params["shards"], prefixes=params["prefixes"],
            rounds=params["rounds"],
            links_per_round=params["links_per_round"],
            reads_per_round=params["reads_per_round"],
            file_size=params["file_size"],
            balancer=BalancerConfig(window_ops_min=8, move_budget=2,
                                    cooldown_ticks=1,
                                    imbalance_tolerance=1.1,
                                    split_threshold=0.6))
        workload = HotspotWorkload(config).setup()
        metrics = workload.run()
        snapshot = _group_snapshot(workload.deployment.system.clocks)
        # The audit outcome rides along: the batched audit must count the
        # exact same committed links lost as the scalar loop (zero here).
        snapshot["counters"] = dict(metrics.counters)
        return snapshot

    @pytest.mark.parametrize("scenario", ["_run_e1", "_run_e9", "_run_e14"])
    def test_every_label_count_and_total_matches(self, scenario, monkeypatch):
        runner = getattr(self, scenario)
        fast = _with_flags(monkeypatch, True, runner)
        reference = _with_flags(monkeypatch, False, runner)
        assert set(fast["merged"]) == set(reference["merged"])
        for label, cell in reference["merged"].items():
            assert fast["merged"][label] == cell, (
                f"label {label!r}: bulk fast path {fast['merged'][label]} != "
                f"scalar reference {cell}")
        assert fast == reference
