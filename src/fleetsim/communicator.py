"""Graph-aware messaging primitives on top of the transport bus.

Three profiles cover the usual trade-offs:

* ``static``: fixed graph, reliable delivery, synchronous and asynchronous
  receives.
* ``time_varying``: reliable delivery over a per-round active subgraph of a
  base graph (see :class:`~fleetsim.netgraph.EdgeSchedule`). A message
  traverses edge (i, j) at round t only if that edge is active at t; sends
  on inactive edges are silently skipped. Both endpoints evaluate the same
  activation, so receivers know which neighbors to expect.
* ``best_effort``: time-varying and lossy. Only asynchronous receives are
  available; mailboxes keep only the newest message per sender, and sends
  may be dropped with ``drop_prob``.

Payloads are arbitrary structured values run through the codec; the
envelope adds sender id, round tag and send timestamp.
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
        Static profiles take the graph directly; time-varying profiles
        accept an EdgeSchedule (a bare graph is wrapped in an
        always-active schedule). Best-effort accepts either.
    profile : one of PROFILES
    config : TransportConfig

    The mailbox depth is 1 on best_effort and unbounded otherwise.
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

        self.bus = bus
        self.agent_id = int(agent_id)
        self.profile = profile
        self.config = config if config is not None else TransportConfig()
        self.in_neighbors, self.out_neighbors = neighbor_sets(self.graph, self.agent_id)
        self._rng = np.random.default_rng([self.config.rng_seed, self.agent_id])
        self._round = 0
        bus.register(self.agent_id, queue_depth=1 if profile == "best_effort" else None)

    # -- round bookkeeping -------------------------------------------------

    @property
    def round(self) -> int:
        return self._round

    def set_round(self, r: int) -> None:
        self._round = int(r)

    def _edge_active(self, src: int, dst: int, r: int) -> bool:
        if self.profile == "static" or self.schedule is None:
            return True
        active = sample_active(self.schedule, r)
        return bool(active.adjacency[src, dst])

    def _latency(self) -> float:
        lat = self.config.latency
        if isinstance(lat, tuple):
            lo, hi = lat
            return float(self._rng.uniform(lo, hi))
        return float(lat)

    # -- sending -----------------------------------------------------------

    def send(self, value, to, round: int | None = None) -> None:
        """Encode ``value`` and queue it for each recipient in ``to``.

        Never blocks. Recipients must be out-neighbors in the base graph;
        reliable profiles raise TopologyError otherwise, best-effort skips
        silently. On the time-varying profiles an edge inactive at this
        round is skipped without error.
        """
        recipients = [to] if isinstance(to, (int, np.integer)) else list(to)
        r = self._round if round is None else int(round)
        payload = codec.encode(value)
        now = self.bus.clock.now()
        for dst in recipients:
            dst = int(dst)
            if dst not in self.out_neighbors:
                if self.profile == "best_effort":
                    continue
                raise TopologyError(
                    "agent %d is not an out-neighbor of %d" % (dst, self.agent_id)
                )
            if not self._edge_active(self.agent_id, dst, r):
                continue
            if self.config.drop_prob > 0.0 and self._rng.random() < self.config.drop_prob:
                continue
            env = Envelope(self.agent_id, r, payload, sent_at=now)
            self.bus.deliver(self.agent_id, dst, env, deliver_at=now + self._latency())

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
        """Newest undelivered payload from ``frm``, or None. Never blocks."""
        env = self.bus.pop_newest(self.agent_id, int(frm))
        return None if env is None else codec.decode(env.payload)

    def drain(self, frm: int) -> list[tuple[int, object]]:
        """All pending (round, payload) pairs from ``frm``, oldest first.

        Convenience for protocol loops that want every update at once;
        non-blocking on every profile.
        """
        return [(env.round, codec.decode(env.payload)) for env in self.bus.drain(self.agent_id, int(frm))]

    # -- synchronized exchange ----------------------------------------------

    def exchange_send(self, value, out_n=None, round: int | None = None) -> None:
        """Broadcast half of :meth:`neighbors_exchange`."""
        r = self._round if round is None else int(round)
        self.send(value, self.out_neighbors if out_n is None else out_n, round=r)

    def exchange_collect(self, in_n=None, round: int | None = None,
                         timeout: float | None = None) -> dict[int, object]:
        """Gather half of :meth:`neighbors_exchange`.

        Reliable profiles block until each expected in-neighbor's message
        for the round is in (expected = active in-edges on time-varying);
        best-effort returns whatever is available right now.
        """
        r = self._round if round is None else int(round)
        senders = sorted(self.in_neighbors if in_n is None else in_n)
        got: dict[int, object] = {}
        if self.profile == "best_effort":
            for j in senders:
                p = self.asynchronous_receive(j)
                if p is not None:
                    got[j] = p
            return got
        expected = [j for j in senders if self._edge_active(j, self.agent_id, r)]
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

    def neighbors_exchange(self, value, in_n=None, out_n=None, round: int | None = None,
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
        self.exchange_send(value, out_n=out_n, round=r)
        got = self.exchange_collect(in_n=in_n, round=r, timeout=timeout)
        if auto:
            self._round = r + 1
        return got
