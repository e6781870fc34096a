"""Channels: the cost-charging path between two simulated processes.

A channel connects a caller's clock domain to a daemon's clock domain and is
where simulated time synchronizes (see :mod:`repro.simclock`):

* :meth:`Channel.request` is a synchronous round trip -- the callee's clock
  max-merges up to the message's send time, the wire latency and the
  handler's work accrue on the callee's timeline, and the caller's clock
  max-merges up to the reply.  Inside an overlap window on the caller
  (:meth:`repro.simclock.SimClock.overlap`) requests to several daemons all
  depart at the window's start and the caller gathers the max reply time,
  which is how a two-phase-commit fan-out overlaps across shards.
* :meth:`Channel.post` is a pipelined send -- the caller pays only the
  ``message_send`` cost and does *not* wait; the callee still syncs to the
  send time and does the work on its own timeline.  Link batches and WAL
  shipping use this, so shard work and replication overlap the sender.

When caller and callee share one clock (an upcall within a file server, or
a serial-clock deployment) both methods degrade to the classic serial
behavior: one latency charge plus the handler's work on the shared timeline.
"""

from __future__ import annotations

from repro.errors import DaemonUnavailableError, ReproError
from repro.simclock import SimClock


class Channel:
    """A request/reply channel to one daemon.

    ``latency_primitive`` names the :class:`~repro.simclock.CostModel` entry
    charged per round trip (``upcall_round_trip`` for DLFS-to-DLFM upcalls,
    ``db_dlfm_message`` for DBMS-agent-to-child-agent traffic).

    ``epoch_provider`` (optional) threads the sender's placement epoch
    through every message: the callable is sampled at send time and handed
    to :meth:`~repro.ipc.daemon.Daemon.dispatch`, so the receiving daemon's
    epoch gate can refuse requests routed by a stale placement map (see
    :mod:`repro.datalinks.placement`).
    """

    __slots__ = ("_daemon", "_clock", "_latency_primitive",
                 "_epoch_provider", "_dispatch", "_callee_clock", "_cross",
                 "_amt_caller_lat", "_amt_callee_lat", "_amt_caller_send")

    def __init__(self, daemon, clock: SimClock | None,
                 latency_primitive: str = "upcall_round_trip",
                 epoch_provider=None):
        self._daemon = daemon
        self._clock = clock
        self._latency_primitive = latency_primitive
        self._epoch_provider = epoch_provider
        # Resolved once: the daemon's dispatch entry point, the callee's
        # clock, and whether this channel crosses clock domains.  Every
        # component assigns its clock in ``__init__`` and never rebinds it,
        # so sampling at channel construction is safe.
        self._dispatch = daemon.dispatch
        self._callee_clock = daemon.clock
        self._cross = (clock is not None and self._callee_clock is not None
                       and clock is not self._callee_clock)
        # Fixed per-message charge amounts, resolved once per channel (the
        # clocks never rebind, see above): the exchange hot path writes
        # the latency/message_send charges out inline against these.
        def _unit(target, primitive):
            if target is None:
                return 0.0
            return target.compile_charges(((primitive, 1.0, None),))[0][0]
        self._amt_caller_lat = _unit(clock, latency_primitive)
        self._amt_callee_lat = _unit(self._callee_clock, latency_primitive)
        self._amt_caller_send = _unit(clock, "message_send")

    def request(self, kind: str, **payload) -> dict:
        """Synchronous round trip: send, wait for the reply, merge clocks."""

        caller = self._clock
        callee = self._callee_clock
        cross = self._cross
        if not self._daemon.running:
            # The attempt itself takes time on the caller's side (a dead
            # node's clock must not advance): the caller waits a full round
            # trip for the failure.
            if caller is not None:
                caller.charge(self._latency_primitive)
            raise DaemonUnavailableError(
                f"daemon {self._daemon.name!r} is not running")
        if cross:
            # sync_to(send_time()) with both sides inlined: this pair runs
            # once per message and the attribute reads replace two method
            # frames (semantics identical, see SimClock.sync_to/send_time).
            frames = caller._overlap_frames
            sent = frames[-1][0] if frames else caller._now
            if sent > callee._now:
                callee._now = sent
            # The latency charge is written out inline too (amount
            # precomputed at channel construction): one frame saved per
            # message.
            amount = self._amt_callee_lat
            callee._now += amount
            key = self._latency_primitive
            cells = callee.stats._cells
            try:
                cell = cells[key]
                cell[0] += 1
                cell[1] += amount
            except KeyError:
                cells[key] = [1, amount]
        elif caller is not None:
            amount = self._amt_caller_lat
            caller._now += amount
            key = self._latency_primitive
            cells = caller.stats._cells
            try:
                cell = cells[key]
                cell[0] += 1
                cell[1] += amount
            except KeyError:
                cells[key] = [1, amount]
        epoch_provider = self._epoch_provider
        epoch = epoch_provider() if epoch_provider is not None else None
        try:
            result = self._dispatch(kind, payload, epoch)
        except ReproError:
            # A failed request costs the caller the round trip too.
            if cross:
                caller.receive(callee._now)
            raise
        if cross:
            # caller.receive(callee.now()), inlined like the send side.
            done = callee._now
            frames = caller._overlap_frames
            if frames:
                frame = frames[-1]
                if done > frame[1]:
                    frame[1] = done
            elif done > caller._now:
                caller._now = done
        return result

    def post(self, kind: str, **payload) -> dict:
        """Pipelined send: the caller does not wait for the callee.

        The handler still runs (and its errors still raise -- the simulation
        executes synchronously), but only the callee's timeline bears the
        wire latency and the work; the caller pays the ``message_send``
        enqueue cost and keeps going.  Use for traffic whose completion is
        acknowledged at a later barrier (link batches before prepare, WAL
        shipping before promotion).  A handler *error* is not free, though:
        surfacing it at statement time means the caller waited for it, so
        the caller's clock merges up to the callee's completion exactly
        like a synchronous round trip.  A one-message :meth:`post_group`.
        """

        return self.post_group(kind, (payload,))[0]

    def post_group(self, kind: str, payloads) -> list[dict]:
        """Pipelined batch: post every payload dict in *payloads*, in order.

        Each message is charged and dispatched exactly like a lone
        :meth:`post`, in order, with liveness re-checked per message; the
        channel bookkeeping (clock-topology resolution, handler lookup) is
        hoisted out of the loop, so a batch of N messages to one
        destination costs O(1) bookkeeping.  Link batches and WAL shipping
        send through this.
        """

        caller = self._clock
        daemon = self._daemon
        callee = self._callee_clock
        cross = self._cross
        latency = self._latency_primitive
        epoch_provider = self._epoch_provider
        dispatch = self._dispatch
        results = []
        for payload in payloads:
            # Liveness is re-checked per message (a handler may stop its
            # own daemon mid-batch), but that is an attribute test, not a
            # per-message channel setup.
            if not daemon.running:
                if caller is not None:
                    caller.charge(latency if not cross else "message_send")
                raise DaemonUnavailableError(
                    f"daemon {daemon.name!r} is not running")
            if cross:
                frames = caller._overlap_frames
                sent = frames[-1][0] if frames else caller._now
                if sent > callee._now:
                    callee._now = sent
                amount = self._amt_callee_lat
                callee._now += amount
                cells = callee.stats._cells
                try:
                    cell = cells[latency]
                    cell[0] += 1
                    cell[1] += amount
                except KeyError:
                    cells[latency] = [1, amount]
                amount = self._amt_caller_send
                caller._now += amount
                cells = caller.stats._cells
                try:
                    cell = cells["message_send"]
                    cell[0] += 1
                    cell[1] += amount
                except KeyError:
                    cells["message_send"] = [1, amount]
            elif caller is not None:
                amount = self._amt_caller_lat
                caller._now += amount
                cells = caller.stats._cells
                try:
                    cell = cells[latency]
                    cell[0] += 1
                    cell[1] += amount
                except KeyError:
                    cells[latency] = [1, amount]
            epoch = epoch_provider() if epoch_provider is not None else None
            try:
                results.append(dispatch(kind, payload, epoch))
            except ReproError:
                # A pipelined send whose handler failed surfaces the error
                # at statement time, which in real life means the caller
                # waited for the failure to come back: charge the
                # round-trip sync instead of handing the error over for
                # free.
                if cross:
                    caller.receive(callee._now)
                raise
        return results

    @property
    def daemon_name(self) -> str:
        return self._daemon.name
