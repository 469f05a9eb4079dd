"""Graph-aware messaging primitives on top of the transport bus.

Three profiles cover the usual trade-offs:

* ``static``: fixed graph, reliable delivery, synchronous receives.
* ``time_varying``: reliable delivery over a per-round active subgraph of a
  base graph (see :class:`~fleetsim.netgraph.EdgeSchedule`). A message
  traverses edge (i, j) at round t only if that edge is active at t; sends
  on inactive edges are silently skipped. Both endpoints evaluate the same
  activation, so receivers know which neighbors to expect.
* ``best_effort``: time-varying and lossy. Only asynchronous (newest-only)
  receives are available; mailboxes keep only the newest arrived message
  per sender (messages in flight are kept too), and sends may be dropped
  with ``drop_prob``. Free-running agents need this profile.

The reliable profiles never drop, so a ``drop_prob`` above 0 is refused
off ``best_effort``. Payloads are arbitrary structured values run through
the codec; the envelope adds the round tag, and the link names the sender.
"""

from __future__ import annotations

import time

import numpy as np

from . import codec
from .errors import (
    ExchangeTimeout,
    TopologyError,
    UnsupportedOperationError,
)
from .netgraph import CommGraph, EdgeSchedule, neighbor_sets, sample_active
from .transport import Envelope, MessageBus, TransportConfig

__all__ = ["Communicator", "PROFILES"]

PROFILES = ("static", "time_varying", "best_effort")


class Communicator:
    """One agent's endpoint on the bus.

    Parameters
    ----------
    bus : MessageBus
    agent_id : int
    graph : CommGraph or EdgeSchedule
        Static profiles take the graph directly; the other two accept an
        EdgeSchedule too, and a bare graph keeps every edge active.
    profile : one of PROFILES
    config : TransportConfig

    The mailbox depth is 1 arrived message on best_effort and unbounded
    otherwise.
    """

    def __init__(self, bus: MessageBus, agent_id: int, graph, profile: str = "static",
                 config: TransportConfig | None = None):
        if profile not in PROFILES:
            raise ValueError("unknown profile %r, expected one of %s" % (profile, PROFILES))
        if isinstance(graph, EdgeSchedule):
            self.schedule = graph
            self.graph = graph.base
        elif isinstance(graph, CommGraph):
            self.schedule = None
            self.graph = graph
        else:
            raise TypeError("graph must be CommGraph or EdgeSchedule")
        if profile == "static" and self.schedule is not None and (
            self.schedule.activation_prob < 1.0 or self.schedule.round_fn is not None
        ):
            raise ValueError("static profile cannot take a varying schedule")
        config = config if config is not None else TransportConfig()
        if config.drop_prob > 0.0 and profile != "best_effort":
            raise ValueError("drop_prob %r needs the best_effort profile; %r links are reliable"
                             % (config.drop_prob, profile))

        self.bus = bus
        self.agent_id = int(agent_id)
        self.profile = profile
        self.config = config
        self.in_neighbors, self.out_neighbors = neighbor_sets(self.graph, self.agent_id)
        # a static profile, or a bare graph, keeps every base edge active
        self._varying = profile != "static" and self.schedule is not None
        self._rng = np.random.default_rng([self.config.rng_seed, self.agent_id])
        self._round = 0
        bus.register(self.agent_id, queue_depth=1 if profile == "best_effort" else None)

    # -- round bookkeeping -------------------------------------------------

    @property
    def round(self) -> int:
        return self._round

    # -- sending -----------------------------------------------------------

    def send(self, value, to, round: int | None = None) -> None:
        """Encode ``value`` and queue it for each recipient in ``to``, as
        :meth:`send_bytes` does with the encoded bytes."""
        self.send_bytes(codec.encode(value), to, round=round)

    def send_bytes(self, data: bytes, to, round: int | None = None) -> None:
        """Queue the already encoded ``data`` for each recipient in ``to``.

        Never blocks. Recipients must be out-neighbors in the base graph;
        reliable profiles raise TopologyError otherwise, before anything is
        queued, and best-effort skips them silently. On the time-varying
        profiles an edge inactive at this round is skipped without error.
        A broadcast, ``to`` being :attr:`out_neighbors` itself, needs no
        check.
        """
        if to is self.out_neighbors:
            recipients = to
        else:
            recipients = [int(to)] if isinstance(to, (int, np.integer)) else [int(d) for d in to]
            if self.profile == "best_effort":
                recipients = [dst for dst in recipients if dst in self.out_neighbors]
            else:
                for dst in recipients:
                    if dst not in self.out_neighbors:
                        raise TopologyError(
                            "agent %d is not an out-neighbor of %d" % (dst, self.agent_id)
                        )
        r = self._round if round is None else int(round)
        env = Envelope(r, data)
        deliver_at = self.bus.clock.now() + self.config.latency
        active = sample_active(self.schedule, r).adjacency if self._varying else None
        drop = self.config.drop_prob
        for dst in recipients:
            if active is not None and not active[self.agent_id, dst]:
                continue
            if drop > 0.0 and self._rng.random() < drop:
                continue
            self.bus.deliver(self.agent_id, dst, env, deliver_at=deliver_at)

    # -- receiving ---------------------------------------------------------

    def receive(self, frm: int, round: int | None = None, timeout: float | None = None):
        """Blocking receive from one sender (reliable profiles only).

        With ``round`` set, waits for the envelope tagged with that round,
        discarding stale earlier-round messages queued in front of it.
        Raises ExchangeTimeout when ``timeout`` (wall seconds) elapses.
        """
        if self.profile == "best_effort":
            raise UnsupportedOperationError(
                "synchronous receive is unavailable on the best_effort profile"
            )
        env = self.bus.pop_next(self.agent_id, int(frm), round=round, timeout=timeout)
        if env is None:
            raise ExchangeTimeout(
                "no message from %d for round %r within %.3fs" % (frm, round, timeout or 0.0),
                sender=int(frm),
                round=round,
            )
        return codec.decode(env.payload)

    def asynchronous_receive(self, frm: int):
        """Newest undelivered payload from ``frm``, or None. Never blocks.
        Best-effort only: a reliable link would keep every older message."""
        if self.profile != "best_effort":
            raise UnsupportedOperationError(
                "newest-only receive is only available on the best_effort profile"
            )
        env = self.bus.pop_newest(self.agent_id, int(frm))
        return None if env is None else codec.decode(env.payload)

    def drain(self, frm: int) -> list[tuple[int, object]]:
        """All pending (round, payload) pairs from ``frm``, oldest first.

        Convenience for protocol loops that want every update at once;
        non-blocking on every profile.
        """
        return [(env.round, codec.decode(env.payload)) for env in self.bus.drain(self.agent_id, int(frm))]

    # -- synchronized exchange ----------------------------------------------

    def exchange_send(self, value, round: int | None = None) -> None:
        """Broadcast half of :meth:`neighbors_exchange`."""
        r = self._round if round is None else int(round)
        self.send(value, self.out_neighbors, round=r)

    def exchange_collect(self, round: int | None = None,
                         timeout: float | None = None) -> dict[int, object]:
        """Gather half of :meth:`neighbors_exchange`.

        Reliable profiles block until each expected in-neighbor's message
        for the round is in (expected = active in-edges on time-varying);
        best-effort returns the newest arrived payload per sender.
        """
        r = self._round if round is None else int(round)
        got: dict[int, object] = {}
        if self.profile == "best_effort":
            for j in self.in_neighbors:
                p = self.asynchronous_receive(j)
                if p is not None:
                    got[j] = p
            return got
        active = sample_active(self.schedule, r).adjacency if self._varying else None
        expected = self.in_neighbors if active is None else [
            j for j in self.in_neighbors if active[j, self.agent_id]]
        deadline = None if timeout is None else time.monotonic() + timeout
        missing = []
        for j in expected:
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            env = self.bus.pop_next(self.agent_id, j, round=r, timeout=left)
            if env is None:
                missing.append(j)
            else:
                got[j] = codec.decode(env.payload)
        if missing:
            raise ExchangeTimeout(
                "round %d exchange missing senders %s" % (r, missing),
                round=r,
                missing=missing,
            )
        return got

    def neighbors_exchange(self, value, round: int | None = None,
                           timeout: float | None = None) -> dict[int, object]:
        """Send ``value`` to out-neighbors and gather one payload per in-neighbor.

        Returns {sender: payload}. On reliable profiles the gather is
        round-synchronized and a timeout lists the missing senders; on
        best-effort it returns whatever has arrived (possibly empty).
        When ``round`` is omitted the internal round counter is used and
        advanced afterwards.
        """
        auto = round is None
        r = self._round if auto else int(round)
        self.exchange_send(value, round=r)
        got = self.exchange_collect(round=r, timeout=timeout)
        if auto:
            self._round = r + 1
        return got
