"""The simulated IPC wire format.

A message is no object of its own: a request is the triple
``(kind, payload, placement_epoch)`` that :class:`~repro.ipc.channel.Channel`
hands to :meth:`~repro.ipc.daemon.Daemon.dispatch`, and the reply is the
handler's payload dict, or the :class:`~repro.errors.ReproError` it raised.
"""
