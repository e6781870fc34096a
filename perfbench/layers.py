"""The repository's layers, as the benchmark sees them from outside.

A layer is a set of ``repro`` modules.  The tracer wraps the public methods
of every class those modules define, plus their public module-level
functions; the per-layer simulated-time split assigns every charge label
of the simulator's cost model to the layer whose module issues it.

Not a layer of their own: ``datalinks/tokens.py`` (token generation counts
in the engine that mints, validation in the DLFM that checks),
``datalinks/datalink_type.py``, ``control_modes.py``, ``util/`` and
``errors.py`` -- their time lands in whichever layer calls them.
"""

from __future__ import annotations

#: Layer name -> the modules it consists of, in reporting order.
LAYERS = {
    "api": ["repro.api.session", "repro.api.admission", "repro.api.system",
            "repro.datalinks.uip"],
    "workloads.clients": ["repro.workloads.clients"],
    "datalinks.engine": ["repro.datalinks.engine"],
    "datalinks.dlfm": ["repro.datalinks.dlfm.manager",
                       "repro.datalinks.dlfm.repository",
                       "repro.datalinks.dlfm.archive",
                       "repro.datalinks.dlfm.daemons",
                       "repro.datalinks.dlfm.files",
                       "repro.datalinks.dlfm.link_manager",
                       "repro.datalinks.dlfm.branches"],
    "datalinks.dlfs": ["repro.datalinks.dlfs.layer",
                       "repro.datalinks.dlfs.upcall_client"],
    "datalinks.sharding": ["repro.datalinks.sharding",
                           "repro.datalinks.routing",
                           "repro.datalinks.replication",
                           "repro.datalinks.placement",
                           "repro.datalinks.balancer"],
    "storage": ["repro.storage.database", "repro.storage.wal",
                "repro.storage.sql", "repro.storage.catalog"],
    "fs": ["repro.fs.logical", "repro.fs.physical", "repro.fs.vfs"],
    "ipc": ["repro.ipc.channel", "repro.ipc.daemon", "repro.ipc.message"],
    "simclock": ["repro.simclock"],
}

#: Cost-model charge label -> (layer, ledger) for the simulated-time split.
#: The DLFM's repository prefixes its database charges with ``dlfm.``.
HOST_SQL = ("sql_statement_base", "row_read", "row_write", "log_write",
            "lock_acquire", "index_probe")
DISK = ("disk_seek", "disk_transfer_per_byte")
FS_CPU = ("syscall_base", "vfs_op", "directory_lookup", "fs_metadata_update")
IPC = ("upcall_round_trip", "db_dlfm_message", "daemon_dispatch",
       "message_send")
ENGINE = ("datalink_engine_dispatch", "token_generate")
DLFM = ("token_validate",) + tuple("dlfm." + label for label in HOST_SQL)
ARCHIVE = ("archive_per_byte", "archive_job_overhead")
DLFS = ("dlfs_filter",)
