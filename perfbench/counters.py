"""Per-layer counters read from the program's public statistics.

:func:`snapshot` is taken right before and right after a round's measured
closed loop; :func:`layer_metrics` turns the two snapshots plus the
tracer's per-layer totals into the ``per_layer`` metrics.  Every count here
is a simulator statistic, so it repeats exactly at one seed.
"""

from __future__ import annotations

import statistics

from layers import (ARCHIVE, DISK, DLFM, DLFS, ENGINE, FS_CPU, HOST_SQL, IPC,
                    LAYERS)
from repro.storage.wal import LogRecordType


def snapshot(workload) -> dict:
    """Public statistics of *workload*'s deployment at this instant."""

    deployment = workload.deployment
    system = deployment.system
    servers = system.file_servers
    cache = system.engine.token_cache_stats()
    token_rows = 0
    for server in servers.values():
        dlfm = server.dlfm
        token_rows += len(dlfm.repository.db.catalog.heap("token_entries"))
        if dlfm.replica_soft is not None:
            token_rows += len(dlfm.replica_soft.token_entries)
    host_wal = system.host_db.wal
    return {
        "charges": system.clocks.stats.as_dict(),
        "domains": {name: sum(cell["total_ms"] for cell in labels.values())
                    for name, labels in system.clocks.stats_by_domain().items()},
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "bytes_read": sum(server.physical.device.stats.bytes_read
                          for server in servers.values()),
        "host_flushes": host_wal.flush_count,
        "host_commits": sum(1 for record in host_wal.records()
                            if record.type is LogRecordType.COMMIT),
        "shipped": sum(replica.shipped_records
                       for replica in deployment.replicas.values()),
        "token_rows": token_rows,
        "served_bytes": workload.served_bytes,
    }


def _delta(before: dict, after: dict, labels, field: str) -> float:
    total = 0.0
    for label in labels:
        total += after["charges"].get(label, {}).get(field, 0) - \
            before["charges"].get(label, {}).get(field, 0)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(before: dict, after: dict, sim: dict,
                  traced_totals: list) -> dict:
    """``{metric: (value, unit)}`` for every per-layer metric.

    *before*/*after* are the :func:`snapshot`\ s around one untraced
    round's closed loop, *sim* that round's simulated figures, and
    *traced_totals* the tracer's ``{layer: (calls, self_s)}`` of each traced
    round (calls are reported from the first, self time as the median).
    """

    ops = sim["attempted"]

    def ms(labels):
        return _delta(before, after, labels, "total_ms")

    def count(labels):
        return _delta(before, after, labels, "count")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (traced_totals[0][layer][0], "count")
        metrics[f"{layer}.self_s"] = (statistics.median(
            totals[layer][1] for totals in traced_totals), "s")

    metrics["api.queue_p50_sim_ms"] = (sim["queue_p50_sim_ms"], "sim_ms")
    metrics["api.queue_p99_sim_ms"] = (sim["queue_p99_sim_ms"], "sim_ms")

    lookups = (after["cache_hits"] - before["cache_hits"]) + \
        (after["cache_misses"] - before["cache_misses"])
    metrics["datalinks.engine.token_cache_hit_rate"] = (_ratio(
        after["cache_hits"] - before["cache_hits"], lookups), "ratio")
    metrics["datalinks.engine.sim_ms"] = (ms(ENGINE), "sim_ms")

    metrics["datalinks.dlfm.token_rows"] = (after["token_rows"], "count")
    metrics["datalinks.dlfm.rows_read_per_op"] = (
        _ratio(count(["dlfm.row_read"]), ops), "rows/op")
    metrics["datalinks.dlfm.sim_ms"] = (ms(DLFM), "sim_ms")
    metrics["datalinks.dlfm.archive_jobs"] = (
        count(["archive_job_overhead"]), "count")
    metrics["datalinks.dlfm.archive_sim_ms"] = (ms(ARCHIVE), "sim_ms")

    metrics["datalinks.dlfs.upcalls_per_op"] = (
        _ratio(count(["upcall_round_trip"]), ops), "count/op")
    metrics["datalinks.dlfs.sim_ms"] = (ms(DLFS), "sim_ms")

    metrics["datalinks.sharding.shipped_records_per_op"] = (
        _ratio(after["shipped"] - before["shipped"], ops), "count/op")
    busy = _busy(before, after)
    shard_load: dict[str, float] = {}
    for name, charged in busy.items():
        if name.startswith("shard"):
            shard = name.split("-", 1)[0]
            shard_load[shard] = shard_load.get(shard, 0.0) + charged
    metrics["datalinks.sharding.max_shard_share"] = (_ratio(
        max(shard_load.values(), default=0.0), sum(shard_load.values())),
        "ratio")

    metrics["storage.sim_ms"] = (ms(HOST_SQL), "sim_ms")
    metrics["storage.rows_read_per_statement"] = (_ratio(
        count(["row_read"]), count(["sql_statement_base"])), "rows/stmt")
    metrics["storage.wal_flushes_per_commit"] = (_ratio(
        after["host_flushes"] - before["host_flushes"],
        after["host_commits"] - before["host_commits"]), "ratio")

    metrics["fs.disk_sim_ms"] = (ms(DISK), "sim_ms")
    metrics["fs.cpu_sim_ms"] = (ms(FS_CPU), "sim_ms")
    metrics["fs.disk_seeks_per_op"] = (
        _ratio(count(["disk_seek"]), ops), "count/op")
    metrics["fs.bytes_read_per_byte_served"] = (_ratio(
        after["bytes_read"] - before["bytes_read"],
        after["served_bytes"] - before["served_bytes"]), "ratio")

    metrics["ipc.messages_per_op"] = (_ratio(
        count(["upcall_round_trip", "db_dlfm_message", "message_send"]),
        ops), "count/op")
    metrics["ipc.sim_ms"] = (ms(IPC), "sim_ms")

    all_labels = set(after["charges"]) | set(before["charges"])
    metrics["simclock.charges_per_op"] = (
        _ratio(count(all_labels), ops), "count/op")
    elapsed_ms = sim["elapsed_sim_ms"]
    metrics["simclock.bottleneck_busy_share"] = (_ratio(
        max(busy.values(), default=0.0), elapsed_ms), "ratio")
    return metrics


def _busy(before: dict, after: dict) -> dict:
    """Charged simulated ms per server-side domain during the closed loop."""

    return {name: charged - before["domains"].get(name, 0.0)
            for name, charged in after["domains"].items()
            if not name.startswith("client")}
