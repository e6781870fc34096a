"""The benchmark's three workloads, driven through the public API only.

Every workload is a closed loop of simulated client sessions: each session
rides its own client clock domain behind the host admission gate and runs
its next operation only after the previous one completed (see
:class:`repro.workloads.clients.ClientPool`).  A workload object is one
*round*: :meth:`Workload.setup` builds and populates a fresh deployment,
:meth:`Workload.run` drives the measured closed loop, and
:meth:`Workload.check` proves the outputs correct afterwards.  All inputs
(page and file choices, read/write mix, file sizes) come from the seed, so
two rounds at one seed charge identical simulated time.

Operations are counted honestly: every attempt stays in the denominator,
and an operation that raises :class:`~repro.errors.ReproError` (a refusal
such as EBUSY, a placement or lease error, anything else) is recorded as
failed under its exception name -- never retried, never dropped from the
latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import parse_url
from repro.workloads.audit import audit_committed_links
from repro.workloads.clients import ClientPool
from repro.workloads.generator import ZipfChooser, make_content

#: Token lifetime in simulated seconds unless a workload sets its own: long
#: enough that no token expires inside a round.
TOKEN_TTL_S = 3600.0


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop client parameters of one workload."""

    sessions: int
    admission_limit: int
    think_ms: float
    ops_per_session: int


class OpLog:
    """Per-operation outcomes of one round, in execution order."""

    def __init__(self):
        self.kinds: list[str] = []
        self.failed: dict[str, int] = {}
        self.mismatches: list[str] = []

    def ok(self, kind: str) -> None:
        self.kinds.append(kind)

    def fail(self, kind: str, error: ReproError) -> None:
        self.kinds.append(kind + "!")
        name = type(error).__name__
        self.failed[name] = self.failed.get(name, 0) + 1

    def mismatch(self, what: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(what)


class Workload:
    """One round of a workload: set-up, measured closed loop, checks."""

    name = ""
    loop: ClosedLoop
    table = ""
    key_column = ""
    token_ttl = TOKEN_TTL_S

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.deployment: ShardedDataLinksDeployment | None = None
        self.pool: ClientPool | None = None
        self.log = OpLog()
        #: Bytes returned to clients by reads (the denominator of the fs
        #: layer's read amplification).
        self.served_bytes = 0
        #: Optional ``callback -> callback`` wrapper applied to the client
        #: operation (the tracer's per-op span).
        self.operation_hook = None
        #: Bytes last committed for every file, keyed by path (the oracle
        #: every read is compared against).
        self.expected: dict[str, bytes] = {}

    # -- phases -------------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def _attempt(self, kind: str, action, *args) -> None:
        """Run one operation; a ``ReproError`` marks it failed, no retry."""

        try:
            action(*args)
        except ReproError as error:
            self.log.fail(kind, error)
        else:
            self.log.ok(kind)

    def _drive(self, ops_per_session, operation) -> None:
        if self.operation_hook is not None:
            operation = self.operation_hook(operation)
        self.pool.run(ops_per_session, operation)

    def _start_pool(self) -> None:
        """Admission gate plus client pool, created once populated."""

        loop = self.loop
        system = self.deployment.system
        system.enable_admission(loop.admission_limit)
        self.pool = ClientPool(system, loop.sessions,
                               think_s=loop.think_ms / 1000.0,
                               username=f"{self.name}-c", uid_base=5001)

    def check(self) -> list[str]:
        """Correctness checks after the run; returns every mismatch found."""

        problems = list(self.log.mismatches)
        deployment = self.deployment
        # Group commit may hold the last commits in the log buffer; force
        # every log so the witnesses receive what the host committed.
        deployment.drain()
        deployment.system.flush_logs()
        auditor = deployment.session("auditor", uid=4001)
        lost = audit_committed_links(deployment, auditor, self.table,
                                     self.key_column, "body", TOKEN_TTL_S)
        if lost:
            problems.append(f"{lost} committed DATALINK(s) do not resolve "
                            f"on their owner")
        problems.extend(self._check_links())
        return problems

    def _check_links(self) -> list[str]:
        """Host rows equal the linked files of every shard and witness."""

        deployment = self.deployment
        router = deployment.router
        by_shard = {name: set() for name in deployment.shard_names}
        for row in deployment.host_db.select(self.table, lock=False):
            url = parse_url(row["body"])
            by_shard[router.owner_shard(url.server, url.path)].add(url.path)
        problems = []
        for shard, paths in by_shard.items():
            nodes = [deployment.shard(shard)]
            replica = deployment.replicas.get(shard)
            if replica is not None:
                nodes = list(replica.nodes.values())
            for node in nodes:
                linked = {row["path"]
                          for row in node.dlfm.repository.linked_files()}
                if linked != paths:
                    problems.append(
                        f"{node.name}: {len(linked ^ paths)} linked file(s) "
                        f"differ from the host rows of shard {shard}")
        return problems

    # -- operations -----------------------------------------------------------------
    def _read(self, session, url: str, path: str) -> None:
        """One routed, token-checked read compared against the oracle."""

        content = self.deployment.read_url(session, url)
        self.served_bytes += len(content)
        if content != self.expected[path]:
            self.log.mismatch(f"read of {path} returned {len(content)} bytes "
                              f"that are not the last committed content")


class _SiteBase(Workload):
    """Shared set-up of the two workloads over rdd-linked files."""

    table = "pages"
    key_column = "page_id"
    shards = 2
    files = 0
    file_size = 0
    directories = 16

    def _build(self) -> None:
        deployment = ShardedDataLinksDeployment(
            self.shards, flush_policy="immediate", group_commit_window=1)
        self.deployment = deployment
        deployment.engine.enable_token_cache()
        deployment.create_table(TableSchema(self.table, [
            Column("page_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDD, token_ttl=self.token_ttl)),
            Column("body_size", DataType.INTEGER),
            Column("body_mtime", DataType.TIMESTAMP),
        ], primary_key=("page_id",)))
        deployment.register_metadata_columns(self.table, "body", "body_size",
                                             "body_mtime")
        owner = deployment.session("webmaster", uid=2001)
        self.paths = []
        for page in range(self.files):
            path = f"/site{page % self.directories:02d}/page{page:05d}.html"
            content = make_content(self.file_size, tag=f"page{page}")
            url = deployment.put_file(owner, path, content)
            owner.insert(self.table, {"page_id": page, "body": url,
                                      "body_size": len(content),
                                      "body_mtime": 0.0})
            self.paths.append(path)
            self.expected[path] = content
        deployment.system.run_archiver()
        self.version = 0

    def _update(self, session, page: int) -> None:
        """Write-token update-in-place of *page*, then the archiver's pass."""

        self.version += 1
        content = make_content(self.file_size, tag=f"page{page}",
                               version=self.version)
        url = session.get_datalink(self.table, {"page_id": page}, "body",
                                   access="write", ttl=self.token_ttl)
        with session.update_file(url, truncate=True) as update:
            update.replace(content)
        path = self.paths[page]
        self.expected[path] = content
        # Archiver cadence: the owning file server archives right after
        # every committed update, on its own clock domain, so the writer's
        # latency excludes it and the next update of the file is never
        # refused as "still being archived".
        deployment = self.deployment
        deployment.router.route_write(
            deployment.shard_of(path)).process_archive_jobs()


class WebRead(_SiteBase):
    """Read-mostly static site: bulk token handout, ~2% webmaster updates."""

    name = "web-read"
    loop = ClosedLoop(sessions=256, admission_limit=32, think_ms=5.0,
                      ops_per_session=24)
    files = 400
    file_size = 8 * 1024
    write_share = 0.02
    zipf_theta = 0.99

    def setup(self) -> None:
        self._build()
        loop = self.loop
        total = loop.sessions * loop.ops_per_session
        pages = ZipfChooser(self.files, self.zipf_theta,
                            self.seed).choose_many(total)
        writes = (self.rng.random(total) < self.write_share).tolist()
        # Session s runs operations s, s + sessions, s + 2 * sessions, ...
        self.schedule = [
            [(pages[op], writes[op])
             for op in range(client, total, loop.sessions)]
            for client in range(loop.sessions)]
        self._start_pool()

    def run(self) -> None:
        # Each session prefetches its read plan's tokens in one handout.
        handouts = [
            session.get_datalink_many(
                self.table, [{"page_id": page} for page, _ in plan], "body",
                access="read", ttl=self.token_ttl)
            for session, plan in zip(self.pool.sessions, self.schedule)]

        def operation(session, client, op):
            page, write = self.schedule[client][op]
            if write:
                self._attempt("write", self._update, session, page)
            else:
                self._attempt("read", self._read, session,
                              handouts[client][op], self.paths[page])

        self._drive(self.loop.ops_per_session, operation)


class UpdateInPlace(_SiteBase):
    """Update-in-place beside token reads of the same Zipf-hot files."""

    name = "update-in-place"
    loop = ClosedLoop(sessions=32, admission_limit=8, think_ms=2.0,
                      ops_per_session=80)
    files = 300
    file_size = 4 * 1024
    zipf_theta = 0.99
    #: Tokens live 5 simulated seconds and every DLFM purges expired
    #: registry entries every ``housekeeping_every`` operations, so the
    #: token registry stays bounded here (unlike ``web-read``) and the
    #: update path, not the registry, carries the work.
    token_ttl = 5.0
    housekeeping_every = 32

    def setup(self) -> None:
        self._build()
        loop = self.loop
        total = loop.sessions * loop.ops_per_session
        pages = ZipfChooser(self.files, self.zipf_theta,
                            self.seed).choose_many(total)
        self.schedule = [pages[client::loop.sessions]
                         for client in range(loop.sessions)]
        self._start_pool()

    def run(self) -> None:
        servers = list(self.deployment.system.file_servers.values())
        started = [0]

        def operation(session, client, op):
            started[0] += 1
            if started[0] % self.housekeeping_every == 0:
                for server in servers:
                    server.dlfm.run_housekeeping()
            page = self.schedule[client][op]
            if op % 2 == 0:
                self._attempt("write", self._update, session, page)
            else:
                self._attempt("read", self._token_read, session, page)

        self._drive(self.loop.ops_per_session, operation)

    def _token_read(self, session, page: int) -> None:
        url = session.get_datalink(self.table, {"page_id": page}, "body",
                                   access="read", ttl=self.token_ttl)
        self._read(session, url, self.paths[page])


class LinkChurn(Workload):
    """Multi-row link transactions and unlinks on a replicated deployment.

    Each writer session repeats: link a batch of ``rows_per_txn`` staged
    files in one transaction, read one of them back through the routed
    read path, and -- once it holds ``live_batches`` batches -- unlink its
    oldest batch in another transaction, so the live set stays steady.
    """

    name = "link-churn"
    table = "docs"
    key_column = "doc_id"
    shards = 4
    batches_per_session = 24
    rows_per_txn = 4
    live_batches = 3
    directories = 32
    loop = ClosedLoop(sessions=64, admission_limit=16, think_ms=1.0,
                      ops_per_session=3 * batches_per_session - live_batches)

    def setup(self) -> None:
        deployment = ShardedDataLinksDeployment(
            self.shards, replication=True, witnesses=1,
            flush_policy="group", group_commit_window=8)
        self.deployment = deployment
        deployment.create_table(TableSchema(self.table, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RFF, recovery=False)),
            Column("body_size", DataType.INTEGER),
        ], primary_key=("doc_id",)))
        stager = deployment.session("stager", uid=4000)
        sessions, batches = self.loop.sessions, self.batches_per_session
        docs = sessions * batches * self.rows_per_txn
        directories = self.rng.integers(0, self.directories, docs).tolist()
        sizes = self.rng.integers(512, 2048, docs).tolist()
        # batches[s][b]: the rows of session s's b-th link transaction;
        # readback[s][b]: which of them the session reads back.
        self.batches = [[[] for _ in range(batches)] for _ in range(sessions)]
        self.readback = self.rng.integers(0, self.rows_per_txn,
                                          (sessions, batches)).tolist()
        for doc in range(docs):
            batch, session = divmod(doc // self.rows_per_txn, sessions)
            path = f"/ingest{directories[doc]:02d}/doc{doc:06d}.dat"
            content = make_content(sizes[doc], tag=f"doc{doc}")
            url = deployment.put_file(stager, path, content)
            self.expected[path] = content
            self.batches[session][batch].append(
                {"doc_id": doc, "body": url, "body_size": sizes[doc]})
        # A session's operations: link b, read b back, unlink b - live.
        self.plan = []
        for batch in range(batches):
            self.plan += [("link", batch), ("read", batch)]
            if batch >= self.live_batches:
                self.plan.append(("unlink", batch - self.live_batches))
        self._start_pool()

    def run(self) -> None:
        def operation(session, client, op):
            action, batch = self.plan[op]
            rows = self.batches[client][batch]
            if action == "read":
                url = rows[self.readback[client][batch]]["body"]
                self._attempt("read", self._read, session, url,
                              parse_url(url).path)
            else:
                self._attempt("write", self._transaction, session, action,
                              rows)

        self._drive(self.loop.ops_per_session, operation)

    def _transaction(self, session, action: str, rows: list[dict]) -> None:
        """One link (multi-row insert) or unlink (delete) transaction."""

        session.begin()
        try:
            if action == "link":
                session.insert_many(self.table, rows)
            else:
                for row in rows:
                    session.delete(self.table, {"doc_id": row["doc_id"]})
            session.commit()
        except ReproError:
            if session.in_transaction:
                session.abort()
            raise


WORKLOADS = {workload.name: workload
             for workload in (WebRead, LinkChurn, UpdateInPlace)}
