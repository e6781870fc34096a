"""Daemon framework: request demultiplexing with start/stop semantics."""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.simclock import SimClock


class Daemon:
    """A simulated daemon process.

    Subclasses register handlers with :meth:`register` (or by defining
    ``handle_<kind>`` methods).  A stopped daemon refuses requests, which is
    how DLFM crashes are simulated.
    """

    def __init__(self, name: str, clock: SimClock | None = None):
        self.name = name
        self.clock = clock
        self.running = True
        self._handlers: dict[str, callable] = {}
        self.requests_served = 0
        # Primed per-dispatch charge amount (see dispatch).
        self._primed_clock = None
        self._amt_dispatch = 0.0
        #: Optional placement-epoch validator: a callable taking the
        #: message's ``placement_epoch`` and raising
        #: :class:`~repro.errors.PlacementEpochError` when it is stale.
        #: DLFM-facing daemons wire this to their manager so a request
        #: routed by an outdated placement map is redirected, never applied.
        self.epoch_gate = None

    def register(self, kind: str, handler) -> None:
        self._handlers[kind] = handler

    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    def dispatch(self, kind: str, payload: dict,
                 placement_epoch: int | None = None) -> dict:
        """Serve one request: charge, epoch gate, then the *kind* handler.

        Charges ``daemon_dispatch``, lets :attr:`epoch_gate` refuse a
        stale ``placement_epoch``, and calls the handler registered for
        *kind* (or the ``handle_<kind>`` method) with *payload* as keyword
        arguments.  Handler failures raise their
        :class:`~repro.errors.ReproError`; an unknown kind raises
        :class:`~repro.errors.ProtocolError`.  Returns a fresh payload dict
        (never the handler's own).
        """

        clock = self.clock
        if clock is not None:
            # ``clock.charge("daemon_dispatch")`` written out inline: this
            # runs once per upcall/replication message, and the fixed
            # amount is cached on first use per clock.
            if self._primed_clock is not clock:
                self._amt_dispatch = clock.compile_charges(
                    (("daemon_dispatch", 1.0, None),))[0][0]
                self._primed_clock = clock
            amount = self._amt_dispatch
            clock._now += amount
            cells = clock.stats._cells
            try:
                cell = cells["daemon_dispatch"]
                cell[0] += 1
                cell[1] += amount
            except KeyError:
                cells["daemon_dispatch"] = [1, amount]
        if self.epoch_gate is not None and placement_epoch is not None:
            self.epoch_gate(placement_epoch)
        try:
            handler = self._handlers[kind]
        except KeyError:
            handler = getattr(self, f"handle_{kind}", None)
            if handler is None:
                raise ProtocolError(
                    f"daemon {self.name!r} does not understand {kind!r}") from None
            # Cache the method-style handler so repeated dispatches of the
            # same kind skip the f-string + getattr probe.
            self._handlers[kind] = handler
        self.requests_served += 1
        result = handler(**payload)
        return dict(result) if result else {}
