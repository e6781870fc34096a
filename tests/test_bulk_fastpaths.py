"""The bulk per-link paths: ``scan_max``, point selects, token handout.

* :meth:`~repro.storage.database.Database.scan_max` is modelled as a DBMS
  ``MAX(pk)`` whose cached maximum survives every kind of mutation;
* the unlocked point-SELECT short cut returns exactly the rows a heap scan
  finds and charges what an index lookup costs;
* ``get_datalink_many`` mints a whole read plan's tokens, and a batch
  equals the one-row handouts it stands for -- same URLs, same token
  stream, same simulated ledger.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SchemaError
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType


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


def _charged_counts(before: dict, after: dict) -> dict:
    """``{label: count}`` charged between two :func:`_stats_cells` views."""

    return {label: cell[0] - before.get(label, (0, 0.0))[0]
            for label, cell in after.items()
            if cell != before.get(label)}


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
                charged = _charged_counts(before, _stats_cells(db.clock.stats))
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


class TestPointSelect:
    """Unlocked selects of every ``where`` shape return exactly the rows a
    heap scan finds; index point selects charge one statement, one
    ``index_probe`` for a primary-key lookup, and one ``row_read`` per
    match."""

    _WHERE_SHAPES = (
        {"k": 3},            # single-PK hit
        {"k": 999},          # single-PK miss
        {"v": 6},            # secondary-index bucket (duplicates)
        {"v": -1},           # secondary-index miss
        {"w": 2},            # unindexed column: general path
        {"k": 3, "v": 9},    # two-column where: general path
        None,                # full scan
        {},                  # empty where: general path
    )

    @staticmethod
    def _heap_rows(db, where) -> list:
        return sorted((dict(row, _rid=rid)
                       for rid, row in db._plan("docs").heap.scan_live()
                       if all(row[column] == value
                              for column, value in (where or {}).items())),
                      key=lambda row: row["_rid"])

    @pytest.mark.parametrize("seed", [5, 20260807, 909090])
    def test_rows_and_charges_match_a_heap_scan(self, seed):
        rng = random.Random(seed)
        db = _make_docs_db()
        for key in range(40):
            db.insert("docs", {"k": key, "v": (key % 10) * 3, "w": key % 5})
        for victim in rng.sample(range(40), 6):
            db.delete("docs", {"k": victim})
        for _ in range(60):
            where = self._WHERE_SHAPES[rng.randrange(len(self._WHERE_SHAPES))]
            expected = self._heap_rows(db, where)
            before = _stats_cells(db.clock.stats)
            rows = db.select("docs", dict(where) if where is not None
                             else None, lock=False)
            charged = _charged_counts(before, _stats_cells(db.clock.stats))
            assert sorted(rows, key=lambda row: row["_rid"]) == expected
            if where is not None and len(where) == 1 and "w" not in where:
                wanted = {"sql_statement_base": 1}
                if "k" in where:
                    wanted["index_probe"] = 1
                if expected:
                    wanted["row_read"] = len(expected)
                assert charged == wanted, where

    def test_composite_key_point_select(self):
        db = Database("pairs", SimClock())
        db.create_table(TableSchema("pairs", [
            Column("a", DataType.INTEGER, nullable=False),
            Column("b", DataType.INTEGER, nullable=False),
            Column("v", DataType.INTEGER),
        ], primary_key=("a", "b")))
        for a in range(4):
            for b in range(3):
                db.insert("pairs", {"a": a, "b": b, "v": a * 10 + b})
        for where, expected in (({"a": 2, "b": 1}, [21]),
                                ({"b": 1, "a": 2}, [21]),
                                ({"a": 9, "b": 0}, [])):
            before = _stats_cells(db.clock.stats)
            rows = db.select("pairs", where, lock=False)
            charged = _charged_counts(before, _stats_cells(db.clock.stats))
            assert [row["v"] for row in rows] == expected
            wanted = {"sql_statement_base": 1, "index_probe": 1}
            if expected:
                wanted["row_read"] = 1
            assert charged == wanted

    def test_locked_select_takes_row_locks(self):
        db = _make_docs_db()
        db.insert("docs", {"k": 3, "v": 9, "w": 1})
        txn = db.begin()
        before = _stats_cells(db.clock.stats)
        assert [row["k"] for row in db.select("docs", {"k": 3}, txn)] == [3]
        charged = _charged_counts(before, _stats_cells(db.clock.stats))
        assert charged["lock_acquire"] >= 1
        db.commit(txn)


class TestBulkHandout:
    """``get_datalink_many`` equals one ``get_datalink`` per ``where``."""

    _WHERES = ({"file_id": 3}, {"file_id": 1}, {"file_id": 3},
               {"file_id": 99}, {"file_id": 7}, {"file_id": 1},
               {"file_id": 0})

    @staticmethod
    def _system(files: int = 10):
        from repro.bench.experiments import _build_system
        from repro.datalinks.control_modes import ControlMode

        system, _, _ = _build_system(ControlMode.RDB, size=1024, files=files)
        return system

    def test_batch_equals_one_row_handouts(self):
        from repro.bench.experiments import FILES_TABLE

        system = self._system()
        urls = system.engine.get_datalink_many(
            FILES_TABLE, [dict(where) for where in self._WHERES], "doc",
            access="read")
        batched = (urls, _group_snapshot(system.clocks))
        system = self._system()
        urls = [system.engine.get_datalink(FILES_TABLE, dict(where), "doc",
                                           access="read")
                for where in self._WHERES]
        single = (urls, _group_snapshot(system.clocks))
        assert urls[3] is None          # the miss stays a miss
        assert all(url is not None for index, url in enumerate(urls)
                   if index != 3)
        assert batched == single

    def test_non_datalink_column_raises(self):
        from repro.bench.experiments import FILES_TABLE
        from repro.errors import ControlModeError

        system = self._system(files=2)
        with pytest.raises(ControlModeError, match="not a DATALINK"):
            system.engine.get_datalink_many(
                FILES_TABLE, [{"file_id": 99}, {"file_id": 0}], "doc_size")

    def test_modes_without_read_tokens_hand_out_plain_urls(self):
        from repro.bench.experiments import FILES_TABLE, _build_system
        from repro.datalinks.control_modes import ControlMode
        from repro.util.urls import parse_url

        system, _, _ = _build_system(ControlMode.RFD, size=1024, files=2)
        urls = system.engine.get_datalink_many(
            FILES_TABLE, [{"file_id": 0}, {"file_id": 1}], "doc")
        assert [parse_url(url).token for url in urls] == [None, None]
        url = system.engine.get_datalink(FILES_TABLE, {"file_id": 0}, "doc",
                                         access="write")
        assert parse_url(url).token is not None

    def test_write_access_on_read_only_mode_raises(self):
        from repro.bench.experiments import FILES_TABLE
        from repro.errors import ControlModeError

        system = self._system(files=2)
        # rdb blocks writes through the database.
        with pytest.raises(ControlModeError, match="cannot be updated"):
            system.engine.get_datalink_many(
                FILES_TABLE, [{"file_id": 0}], "doc", access="write")
        with pytest.raises(ControlModeError, match="cannot be updated"):
            system.engine.get_datalink(FILES_TABLE, {"file_id": 1}, "doc",
                                       access="write")
