"""Simulated time: per-node clock domains with merge-at-sync, plus the
calibrated cost model.

The paper reports latencies measured on a 200 MHz PowerPC 604 testbed with a
kernel VFS layer (Section 3.2): retrieving a DATALINK column costs less than
3 ms at the host database, the DLFS layer plus token validation adds roughly
1 ms to open/read/close, and the end-to-end overhead of reading a 1 MB file
through DataLinks is below 1 %.  We cannot interpose on a real kernel from
Python, so every component charges its work to a simulated clock using a
:class:`CostModel` calibrated from those published figures, and benchmarks
report *simulated* milliseconds.

Time is **not** one global serial tape.  The paper's testbed had real
hardware concurrency -- the host database, each file server's DLFM and the
archive mover are separate machines/processes doing work at the same time --
so the simulation models one :class:`ClockDomain` per node, grouped in a
:class:`ClockDomainGroup`:

* every domain advances independently as its node charges work;
* domains synchronize by **max-merging** their times at real synchronization
  points: an IPC request/reply is a two-way merge (the callee cannot start
  before the message was sent, the caller cannot continue before the reply
  exists), a pipelined send (:meth:`repro.ipc.channel.Channel.post`) is a
  one-way merge (the sender does not wait), and two-phase-commit barriers
  merge every participant;
* a coordinator fanning out to N participants opens an *overlap window*
  (:meth:`SimClock.overlap`): all requests are timestamped at the window's
  start and the coordinator advances to the **max** of the replies instead
  of their sum, which is what lets N shards show genuine latency overlap --
  and what lets a burst of follower reads, round-robined by the
  replication router over the serving node and its witnesses, cost the
  bottleneck node's busy time instead of the serial sum (the E12
  follower-read throughput measurement);
* a *pipelined* send whose handler fails is not free: the error surfaces
  at statement time, so the sender's clock merges up to the receiver's
  completion exactly like a synchronous round trip (only successful posts
  stay fire-and-forget);
* :meth:`ClockDomainGroup.global_now` (the max over domains) is the cluster
  wall clock used for experiment reporting.

:class:`SimClock` remains the single-timeline facade -- a
:class:`ClockDomain` *is* a :class:`SimClock`, so components keep calling
``charge()``/``measure()`` and only differ in *which* clock they hold.  A
bare :class:`SimClock` (no group) behaves exactly like the old serial model,
which is also what ``serial_clock=True`` deployments use for A/B comparisons.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from itertools import repeat as _repeat


@dataclass
class CostModel:
    """Calibrated per-primitive costs, in simulated seconds.

    The defaults are derived from the paper's Section 3.2 measurements and
    from typical late-1990s hardware characteristics (10 ms/MB sequential
    disk transfer, sub-millisecond local IPC).  All values can be overridden
    to run sensitivity studies.
    """

    # --- host database -----------------------------------------------------
    sql_statement_base: float = 0.50e-3     # parse/plan/dispatch a statement
    row_read: float = 0.05e-3               # fetch one row from a heap/index
    row_write: float = 0.10e-3              # insert/update/delete one row
    log_write: float = 0.20e-3              # force one WAL record group
    lock_acquire: float = 0.01e-3           # grant one lock
    index_probe: float = 0.02e-3            # one index lookup

    # --- DataLinks engine ---------------------------------------------------
    token_generate: float = 0.80e-3         # HMAC generation at the host DB
    token_validate: float = 0.30e-3         # HMAC check at DLFM
    datalink_engine_dispatch: float = 0.30e-3  # engine bookkeeping per op

    # --- IPC ----------------------------------------------------------------
    upcall_round_trip: float = 0.25e-3      # DLFS -> upcall daemon -> DLFS
    db_dlfm_message: float = 0.60e-3        # DataLinks engine <-> DLFM agent
    daemon_dispatch: float = 0.02e-3        # daemon request demultiplexing
    message_send: float = 0.05e-3          # sender-side cost of a pipelined
    #                                        (non-blocking) message enqueue

    # --- file system --------------------------------------------------------
    syscall_base: float = 0.05e-3           # LFS entry/exit per system call
    vfs_op: float = 0.02e-3                 # one VFS entry point invocation
    dlfs_filter: float = 0.05e-3            # DLFS interposition per entry point
    directory_lookup: float = 0.03e-3       # resolve one path component
    disk_seek: float = 8.0e-3               # one random positioning (late-90s disk)
    disk_transfer_per_byte: float = 120.0e-3 / (1024 * 1024)  # ~8.5 MB/s sequential
    fs_metadata_update: float = 0.05e-3     # inode attribute update

    # --- archive / backup ---------------------------------------------------
    archive_per_byte: float = 150.0e-3 / (1024 * 1024)  # archive device write
    archive_job_overhead: float = 2.0e-3    # scheduling one archive job
    backup_per_row: float = 0.02e-3         # copy one row during backup

    # --- LOB/BLOB baseline (Oracle iFS / Informix IXFS style) ----------------
    # Extra database processing per byte when file content is stored in and
    # served from a LOB column instead of the file system (buffer copies,
    # LOB locators, SQL layer) -- on top of the underlying disk transfer --
    # plus a fixed per-request conversion cost (the IXFS middleware turns
    # every file call into SQL and formats the result back into file-system
    # objects).
    blob_db_per_byte: float = 80.0e-3 / (1024 * 1024)
    blob_request_overhead: float = 2.0e-3

    # --- DLFM repository scaling ---------------------------------------------
    # The DLFM's private repository is a lean embedded store, not a full SQL
    # engine; its statements cost a fraction of a host-database statement.
    dlfm_repository_scale: float = 0.1

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy of this model with every cost multiplied by *factor*."""

        values = {f.name: getattr(self, f.name) * factor for f in fields(self)}
        return CostModel(**values)


class ClockStats:
    """Aggregated charge counters kept by :class:`SimClock`.

    Charges are keyed by *label* -- normally the primitive name, but callers
    can supply an explicit label (e.g. the DLFM repository prefixes its
    database charges with ``dlfm.`` so they never conflate with the host
    database's charges for the same primitive).

    Counts and totals live in one plain dict of ``[count, total]`` cells so
    the per-charge bookkeeping is a single dict probe plus two in-place
    updates with no tuple allocation -- this runs once on every single
    ``charge()``, so it is the hottest code in the simulator.
    """

    __slots__ = ("_cells",)

    def __init__(self):
        #: label -> [count, total] (a mutable cell updated in place).
        self._cells: dict[str, list] = {}

    def total(self, label: str) -> float:
        cell = self._cells.get(label)
        return cell[1] if cell is not None else 0.0

    def count(self, label: str) -> int:
        cell = self._cells.get(label)
        return cell[0] if cell is not None else 0

    def labels(self) -> list[str]:
        return sorted(self._cells)

    def total_count(self) -> int:
        """Total charged operations, summed across every label."""

        return sum(cell[0] for cell in self._cells.values())

    @property
    def charges(self) -> dict:
        """``{label: (count, total)}`` -- compatibility view."""

        return {label: (cell[0], cell[1])
                for label, cell in self._cells.items()}

    def as_dict(self) -> dict:
        """``{label: {"count": n, "total_ms": t}}`` for reporting."""

        return {label: {"count": cell[0], "total_ms": cell[1] * 1000.0}
                for label, cell in sorted(self._cells.items())}

    def grand_total(self) -> float:
        """Total simulated seconds charged across every label."""

        return sum(cell[1] for cell in self._cells.values())


class GroupStats(ClockStats):
    """Cluster-wide charge counters of a :class:`ClockDomainGroup`.

    Nothing is recorded here: every read sums the per-domain
    :class:`ClockStats` of the group's domains as they are at that moment,
    so a reference taken once sees later charges and domains created
    later.  Counts are exact; a total is the sum of the domain totals (in
    domain-creation order).
    """

    __slots__ = ("_domains",)

    def __init__(self, domains: dict):
        self._domains = domains

    @property
    def _cells(self) -> dict:
        """The merged ``label -> [count, total]`` cells, built afresh on
        every read; every inherited :class:`ClockStats` reader uses it."""

        merged: dict[str, list] = {}
        for domain in self._domains.values():
            for label, (count, total) in domain.stats._cells.items():
                try:
                    cell = merged[label]
                    cell[0] += count
                    cell[1] += total
                except KeyError:
                    merged[label] = [count, total]
        return merged


class SimClock:
    """A monotonically advancing simulated clock with cost accounting.

    Components never sleep; they call :meth:`charge` with the name of a
    primitive from :class:`CostModel` (optionally scaled by a byte count or
    an explicit repeat factor) and the clock advances by the calibrated cost.

    Synchronization protocol (used between :class:`ClockDomain` instances,
    but defined here so any two clocks can rendezvous):

    * :meth:`send_time` -- the timestamp an outgoing message carries;
    * :meth:`sync_to` -- one-way merge: a node receiving a message cannot be
      earlier than the message's send time;
    * :meth:`receive` -- the caller's side of a reply: advance to the
      reply's timestamp (max-merge, never backwards);
    * :meth:`overlap` -- scatter-gather window: every ``send_time`` inside
      the window is the window's start, and replies accumulate into a
      pending max applied when the window closes, so a fan-out to N peers
      costs the *slowest* reply instead of the sum of all replies.
    """

    def __init__(self, cost_model: CostModel | None = None, start: float = 0.0,
                 name: str = "clock", units: dict | None = None):
        self.costs = cost_model if cost_model is not None else CostModel()
        # Per-primitive unit costs as a plain dict: ``charge()`` looks the
        # primitive up here instead of getattr() on the dataclass.  Clocks
        # sharing one cost model (every domain of a group) may share the
        # derived dict via ``units`` -- it is read-only after construction.
        if units is not None:
            self._units = units
        else:
            self._units = {field.name: getattr(self.costs, field.name)
                           for field in fields(self.costs)}
        self.name = name
        self._now = float(start)
        self.stats = ClockStats()
        # Scatter-gather frames: [fork_time, pending_reply_max] per level.
        self._overlap_frames: list[list[float]] = []

    # -- time ----------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time in seconds since the clock was created.

        Hot paths that stamp thousands of timestamps per run (inode
        access times, token clocks) may read the backing ``_now``
        attribute directly; it is always the same float this returns.
        """

        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by *seconds* (must be non-negative)."""

        if seconds < 0:
            raise ValueError("cannot move the simulated clock backwards")
        self._now += seconds
        return self._now

    # -- synchronization ------------------------------------------------------
    def send_time(self) -> float:
        """The timestamp an outgoing message carries (the overlap fork time
        inside a scatter-gather window, the current time otherwise)."""

        if self._overlap_frames:
            return self._overlap_frames[-1][0]
        return self._now

    def sync_to(self, instant: float) -> float:
        """One-way max-merge: jump forward to *instant* if it is later."""

        if instant > self._now:
            self._now = instant
        return self._now

    def receive(self, instant: float) -> float:
        """Merge an incoming reply timestamp.

        Inside an overlap window the reply only raises the window's pending
        max (the gather happens when the window closes); outside, it
        max-merges immediately.
        """

        if self._overlap_frames:
            frame = self._overlap_frames[-1]
            if instant > frame[1]:
                frame[1] = instant
            return self._now
        if instant > self._now:
            self._now = instant
        return self._now

    def begin_overlap(self) -> None:
        """Open a scatter-gather window anchored at the current time."""

        self._overlap_frames.append([self._now, self._now])

    def end_overlap(self) -> None:
        """Close the innermost window: advance to the max gathered reply."""

        fork, pending = self._overlap_frames.pop()
        del fork
        self.receive(pending)

    @contextlib.contextmanager
    def overlap(self):
        """Context manager around :meth:`begin_overlap`/:meth:`end_overlap`."""

        self.begin_overlap()
        try:
            yield self
        finally:
            self.end_overlap()

    # -- cost charging -------------------------------------------------------
    def charge(self, primitive: str, *, times: int = 1, nbytes: int = 0,
               scale: float = 1.0, label: str | None = None) -> float:
        """Charge the cost of *primitive* and advance the clock.

        ``times`` repeats the primitive; ``nbytes`` is used for per-byte
        primitives (``disk_transfer_per_byte``, ``archive_per_byte``) where
        the charged amount is ``cost * nbytes`` instead of ``cost * times``.
        ``scale`` multiplies the final amount (used e.g. for the DLFM's lean
        repository).  ``label`` overrides the stats key (the charge is
        recorded under *label* instead of the primitive name, so scaled
        charges can be attributed separately).  Returns the amount of
        simulated time charged.
        """

        try:
            unit = self._units[primitive]
        except KeyError:
            unit = getattr(self.costs, primitive)
        amount = unit * nbytes if nbytes else unit * times
        amount *= scale
        self._now += amount
        # The stats bookkeeping is inlined (not routed through
        # ``ClockStats.record``): this path runs hundreds of thousands of
        # times per experiment and the call overhead dominates.  The
        # try/except form wins because the key almost always exists after
        # the first charge.  The float additions happen in exactly the same
        # order as before (``0.0 + x == x`` for the first charge), which is
        # what keeps simulated totals bit-identical.
        key = label or primitive
        cells = self.stats._cells
        try:
            cell = cells[key]
            cell[0] += 1
            cell[1] += amount
        except KeyError:   # first charge under this key
            cells[key] = [1, amount]
        return amount

    def charge_run(self, primitive: str, times: int, *, scale: float = 1.0,
                   label: str | None = None) -> float:
        """Charge *times* back-to-back unit charges of *primitive*.

        Bit-identical to ``times`` scalar :meth:`charge` calls: float
        addition is order-dependent, so the per-event amount is still added
        in a loop (a single ``amount * times`` advance would drift), but the
        loop runs on local accumulators with the unit lookup, stats probes
        and call overhead hoisted out -- one aggregated ledger write-back
        instead of one full bookkeeping pass per record.  Returns the total
        simulated time charged.
        """

        if times <= 0:
            return 0.0
        try:
            unit = self._units[primitive]
        except KeyError:
            unit = getattr(self.costs, primitive)
        # Exactly the scalar path's arithmetic for one event (``times=1``).
        amount = unit * 1
        amount *= scale
        key = label or primitive
        cells = self.stats._cells
        try:
            cell = cells[key]
        except KeyError:   # ``0.0 + x == x``, so starting empty is exact
            cell = cells[key] = [0, 0.0]
        now = self._now
        total = cell[1]
        charged = 0.0
        for _ in _repeat(None, times):
            now += amount
            total += amount
            charged += amount
        self._now = now
        cell[0] += times
        cell[1] = total
        return charged

    def compile_charges(self, events) -> tuple:
        """Pre-resolve a repeating charge pattern for :meth:`charge_batch`.

        *events* is a sequence of ``(primitive, scale, label)`` triples --
        one cycle of the pattern, in charge order.  The unit lookups and
        stats keys are resolved once here instead of once per replayed
        event.  The compiled pattern -- a tuple of ``(amount, label)`` per
        event -- is clock-specific (units come from this clock's cost
        model).
        """

        entries = []
        for primitive, scale, label in events:
            try:
                unit = self._units[primitive]
            except KeyError:
                unit = getattr(self.costs, primitive)
            amount = unit * 1
            amount *= scale
            entries.append((amount, label or primitive))
        return tuple(entries)

    def charge_batch(self, compiled: tuple, cycles: int = 1) -> None:
        """Replay a compiled charge pattern *cycles* times.

        Bit-identical to charging every event of every cycle through the
        scalar :meth:`charge` path in order: the clock receives the
        per-event amounts in exactly the original sequence and each stats
        cell accumulates its own amounts in arrival order.  All dict probes
        happen once per distinct label instead of once per event.
        """

        entries = compiled
        if cycles <= 0 or not entries:
            return
        cells = self.stats._cells
        # label -> [running_total, events_per_cycle, cell].
        ledger: dict[str, list] = {}
        for amount, key in entries:
            try:
                ledger[key][1] += 1
            except KeyError:
                try:
                    cell = cells[key]
                except KeyError:
                    cell = cells[key] = [0, 0.0]
                ledger[key] = [cell[1], 1, cell]
        now = self._now
        for _ in _repeat(None, cycles):
            for amount, key in entries:
                now += amount
                ledger[key][0] += amount
        self._now = now
        for total, per_cycle, cell in ledger.values():
            cell[0] += per_cycle * cycles
            cell[1] = total

    def measure(self) -> "Stopwatch":
        """Return a :class:`Stopwatch` started at the current simulated time."""

        return Stopwatch(self)


@contextlib.contextmanager
def synchronized_call(caller, callee):
    """Two-way merge around a synchronous cross-domain call.

    The callee cannot start before the caller's message was sent
    (``callee.sync_to(caller.send_time())``), and the caller cannot continue
    before the callee finished (``caller.receive(callee.now())``, applied
    even when the body raises -- failures take time too).  A no-op when the
    two clocks are the same object or either is ``None``.
    """

    if caller is None or callee is None or caller is callee:
        yield
        return
    callee.sync_to(caller.send_time())
    try:
        yield
    finally:
        caller.receive(callee.now())


def rendezvous(*clocks) -> float:
    """Max-merge the given clocks (``None`` entries ignored): a barrier.

    Commutative and idempotent -- ``rendezvous(a, b)`` and
    ``rendezvous(b, a)`` leave both clocks at the same instant.  Returns
    that instant.
    """

    present = [clock for clock in clocks if clock is not None]
    if not present:
        return 0.0
    instant = max(clock.now() for clock in present)
    for clock in present:
        clock.sync_to(instant)
    return instant


def gather(target, clocks) -> float:
    """Aggregated barrier: merge *clocks* into *target* with one receive.

    The batched counterpart of ``rendezvous(target, c)`` once per client:
    N client domains merging through the host cost one ``max()`` scan and
    a single :meth:`SimClock.receive` on the target, after which every
    client syncs forward to the merged instant.  ``None`` entries and the
    target itself are skipped, so the call degenerates to a no-op when
    every client shares the target clock (a serial-clock deployment).
    Returns the merged instant.
    """

    present = [clock for clock in clocks
               if clock is not None and clock is not target]
    instant = target.now()
    for clock in present:
        t = clock._now
        if t > instant:
            instant = t
    target.receive(instant)
    for clock in present:
        clock.sync_to(instant)
    return instant


class ClockDomain(SimClock):
    """One simulated node's clock inside a :class:`ClockDomainGroup`.

    A domain is a full :class:`SimClock` (components hold it and call
    ``charge()``/``measure()`` unchanged) whose charges land in its own
    :class:`ClockStats` only -- the group's cluster-wide
    :attr:`ClockDomainGroup.stats` is derived from them when read.  It
    additionally treats :meth:`advance` as *cluster* idle time -- explicit
    waiting (editor think time, TTL expiry in tests) passes for every node,
    which matches the old serial model; :meth:`advance_local` advances only
    this domain.
    """

    def __init__(self, group: "ClockDomainGroup", name: str,
                 cost_model: CostModel | None = None, start: float = 0.0,
                 units: dict | None = None):
        super().__init__(cost_model, start=start, name=name, units=units)
        self.group = group

    def advance(self, seconds: float) -> float:
        """Let *seconds* of idle wall time pass for the whole cluster."""

        if seconds < 0:
            raise ValueError("cannot move the simulated clock backwards")
        for domain in self.group.domains.values():
            domain.advance_local(seconds)
        return self._now

    def advance_local(self, seconds: float) -> float:
        """Advance only this domain (a node busy on unmodelled local work)."""

        return super().advance(seconds)


class ClockDomainGroup:
    """The set of clock domains of one simulated cluster.

    ``serial=True`` collapses every domain onto a single shared timeline --
    the old serial-clock model, kept for honest A/B comparisons (e.g. the
    serial-clock rows of experiment E11).  Passing ``root`` adopts an
    existing :class:`SimClock` as that single timeline.

    :attr:`stats` is a live :class:`GroupStats` view summing every domain's
    charge counters when read; charge a domain, never the group.
    """

    def __init__(self, cost_model: CostModel | None = None, *,
                 serial: bool = False, root: SimClock | None = None):
        self.costs = cost_model if cost_model is not None else \
            (root.costs if root is not None else CostModel())
        self.serial = serial or root is not None
        self.domains: dict[str, SimClock] = {}
        self.stats = GroupStats(self.domains)
        self._root = root
        #: Per-primitive units dict shared by every domain of this group
        #: (they all charge against the same ``self.costs``); built by the
        #: first domain and reused so creating 10^4 client domains does
        #: not re-derive it 10^4 times.
        self._shared_units: dict | None = None
        if root is not None:
            self.domains["serial"] = root

    def domain(self, name: str) -> SimClock:
        """The clock domain for node *name* (created on first use).

        In serial mode every name resolves to the same shared clock.
        """

        if self.serial:
            if self._root is None:
                self._root = ClockDomain(self, "serial", self.costs)
                self.domains["serial"] = self._root
            return self._root
        if name not in self.domains:
            domain = ClockDomain(self, name, self.costs,
                                 units=self._shared_units)
            if self._shared_units is None:
                self._shared_units = domain._units
            self.domains[name] = domain
        return self.domains[name]

    def global_now(self) -> float:
        """The cluster wall clock: the max over every domain's time."""

        if not self.domains:
            return self._root.now() if self._root is not None else 0.0
        return max(domain.now() for domain in self.domains.values())

    # ``now()``/``measure()`` make the group usable wherever a clock-like
    # object is expected, measuring cluster wall-clock progress.
    def now(self) -> float:
        return self.global_now()

    def measure(self) -> "Stopwatch":
        return Stopwatch(self)

    def barrier(self) -> float:
        """Rendezvous every domain (a cluster-wide synchronization point)."""

        return rendezvous(*self.domains.values())

    def session_domains(self, count: int, base: SimClock | None = None, *,
                        limit: int | None = None,
                        prefix: str = "client") -> list:
        """Clock domains for *count* simulated client sessions.

        Returns a list of *count* clocks, one per client.  In serial mode
        (``serial_clock=True`` deployments) every entry is *base* (default:
        the ``host`` domain), so all sessions ride the one shared
        timeline.  Otherwise each client gets its own domain, pooled
        round-robin over at most *limit* distinct domains so wall clock
        stays flat at 10^4 clients.  Pooled domain names are stable
        across calls (``client0``, ``client1``, ...) and every pooled
        domain is synced forward to *base*'s current time, so a new sweep
        step starts no earlier than the host -- safe because the drivers
        :func:`gather` all clients back through the host at step end.
        """

        if base is None:
            base = self.domain("host")
        if count <= 0:
            return []
        if self.serial:
            return [base] * count
        pool = count if limit is None else max(1, min(count, limit))
        start = base.now()
        clocks = []
        for index in range(pool):
            domain = self.domain(f"{prefix}{index}")
            domain.sync_to(start)
            clocks.append(domain)
        if pool == count:
            return clocks
        return [clocks[index % pool] for index in range(count)]

    def stats_by_domain(self) -> dict:
        """``{domain: {label: {"count", "total_ms"}}}`` per-node breakdown."""

        return {name: domain.stats.as_dict()
                for name, domain in sorted(self.domains.items())}

    def times_by_domain(self) -> dict:
        """``{domain: now_in_ms}`` -- each node's local time, for reporting."""

        return {name: domain.now() * 1000.0
                for name, domain in sorted(self.domains.items())}


class Stopwatch:
    """Measures elapsed simulated time; usable as a context manager.

    Works over a single :class:`SimClock`/:class:`ClockDomain` (elapsed time
    on that node) or a :class:`ClockDomainGroup` (elapsed cluster wall-clock
    time, i.e. ``global_now`` deltas).
    """

    def __init__(self, clock):
        self._clock = clock
        self.start = clock.now()
        self.stop: float | None = None

    def __enter__(self) -> "Stopwatch":
        self.start = self._clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop = self._clock.now()

    @property
    def elapsed(self) -> float:
        """Elapsed simulated seconds (to the stop point, or to now)."""

        end = self.stop if self.stop is not None else self._clock.now()
        return end - self.start

    @property
    def elapsed_ms(self) -> float:
        """Elapsed simulated milliseconds."""

        return self.elapsed * 1000.0
