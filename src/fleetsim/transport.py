"""In-process message bus: per-link FIFO queues with drop and latency.

The bus is the only channel between agents. It is thread-safe; blocking
receives suspend only the calling agent. Scenario engines usually drive it
single-threaded in lockstep (send sweep, then receive sweep), where the
blocking paths are never exercised.

The bus passes :class:`Envelope` objects, never packed bytes: an envelope
carries the round tag beside the codec-encoded payload, and the (src, dst)
link it is queued on names the sender. A broadcast queues one envelope on
every recipient's link, and :meth:`Envelope.value` decodes a bare-array
payload once for all of them.

Delivery discipline per link is strict FIFO: a message becomes visible only
once it is at the queue head and its delivery time has passed. Queues are
unbounded by default; a receiver registered with ``queue_depth=k`` keeps
only the newest k arrived messages per link (oldest dropped on overflow),
which is how best-effort mailboxes get their depth-1 "latest wins" behavior.
Messages still in flight never count toward the depth, so a delayed link
delivers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .errors import RegistrationError

__all__ = ["Envelope", "TransportConfig", "LockstepClock", "WallClock", "MessageBus"]


@dataclass(frozen=True)
class Envelope:
    """One message on the wire.

    :meth:`value` decodes the payload. A bare array (a VEC or MAT item) is
    decoded once, by the first receiver, and kept: every receiver of the
    envelope gets that one read-only float64 array. Any other value, a
    map or a list say, decodes afresh on each call, so each receiver owns
    its copy.
    """

    round: int
    payload: bytes
    _shared: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def value(self):
        """The decoded payload: the shared read-only array of a bare-array
        payload, else a fresh :func:`fleetsim.codec.decode` of it."""
        if self._shared is not None:
            return self._shared
        value = codec.decode(self.payload)
        if type(value) is np.ndarray:
            value.setflags(write=False)
            object.__setattr__(self, "_shared", value)
        return value


@dataclass(frozen=True)
class TransportConfig:
    """Link quality knobs applied on the sending side.

    ``latency`` is the one delay in seconds every message on the link
    takes. Drops come from a generator seeded with ``rng_seed`` and the
    sender id, so a run is reproducible whenever sends happen in a
    deterministic order.
    """

    drop_prob: float = 0.0
    latency: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob %r outside [0, 1]" % (self.drop_prob,))
        if not self.latency >= 0.0:  # NaN fails this too
            raise ValueError("latency %r is not a nonnegative number" % (self.latency,))


class LockstepClock:
    """Simulated clock advanced explicitly by the scenario runner."""

    def __init__(self):
        self._t = 0.0
        self._listeners = []

    def now(self) -> float:
        return self._t

    def advance(self, dt: float) -> None:
        self._t += dt
        for notify in self._listeners:
            notify()

    def _subscribe(self, notify) -> None:
        self._listeners.append(notify)


class WallClock:
    """Real time, for free-running agents."""

    def __init__(self):
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def _subscribe(self, notify) -> None:
        pass


class _Link:
    __slots__ = ("queue", "depth")

    def __init__(self, depth):
        self.queue = deque()
        self.depth = depth


class MessageBus:
    """Registry of agents plus one FIFO queue per (src, dst) link."""

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else LockstepClock()
        self._lock = threading.Lock()
        self._conds: dict[int, threading.Condition] = {}
        self._links: dict[tuple[int, int], _Link] = {}
        self._depths: dict[int, int | None] = {}
        # threads blocked in ``pop_next``, counted under ``_lock``
        self._waiting = 0
        self.clock._subscribe(self._wake_all)

    def register(self, agent_id: int, queue_depth: int | None = None) -> None:
        """Claim an id. Raises RegistrationError if already taken, and
        ValueError for a ``queue_depth`` that is not an int of at least 1
        (a bool is refused)."""
        if queue_depth is not None and (isinstance(queue_depth, bool)
                                        or not isinstance(queue_depth, int) or queue_depth < 1):
            raise ValueError("queue_depth must be an int of at least 1, got %r" % (queue_depth,))
        with self._lock:
            if agent_id in self._conds:
                raise RegistrationError("agent id %d already registered" % agent_id)
            self._conds[agent_id] = threading.Condition(self._lock)
            self._depths[agent_id] = queue_depth

    def _wake_all(self) -> None:
        with self._lock:
            if not self._waiting:
                return
            for cond in self._conds.values():
                cond.notify_all()

    def _link(self, src: int, dst: int) -> _Link:
        """The (src, dst) link; a first use checks that ``dst`` is registered."""
        link = self._links.get((src, dst))
        if link is None:
            if dst not in self._conds:
                raise RegistrationError("agent id %d is not registered" % dst)
            link = _Link(self._depths[dst])
            self._links[(src, dst)] = link
        return link

    def deliver(self, src: int, dst: int, env: Envelope, deliver_at: float | None = None) -> None:
        """Queue a message on the (src, dst) link and wake the receiver if
        some thread is blocked in ``pop_next``."""
        at = self.clock.now() if deliver_at is None else deliver_at
        with self._lock:
            link = self._links.get((src, dst)) or self._link(src, dst)
            link.queue.append((at, env))
            if link.depth is not None and len(link.queue) > link.depth:
                self._deliverable(link)  # drops arrived messages beyond the depth
            if self._waiting:
                self._conds[dst].notify_all()

    def _deliverable(self, link: _Link) -> int:
        """Number of head-of-line messages whose delivery time has passed;
        a bounded link first drops the oldest of them beyond its depth."""
        now = self.clock.now()
        count = 0
        for at, _ in link.queue:
            if at > now:
                break
            count += 1
        if link.depth is not None and count > link.depth:
            for _ in range(count - link.depth):
                link.queue.popleft()
            count = link.depth
        return count

    def pop_next(self, dst: int, src: int, round: int | None = None,
                 timeout: float | None = None) -> Envelope | None:
        """Next deliverable envelope from ``src``, blocking up to ``timeout``.

        With ``round`` given, waits for the first envelope tagged with that
        round and discards older-round envelopes queued ahead of it. Returns
        None on timeout (timeout=0 polls without blocking).
        """
        with self._lock:
            link = self._links.get((src, dst)) or self._link(src, dst)
            queue = link.queue
            # the lockstep case: an unbounded link whose head has arrived
            # and carries the round is answered without a scan or a wait
            if (link.depth is None and queue and queue[0][0] <= self.clock.now()
                    and (round is None or queue[0][1].round == round)):
                return queue.popleft()[1]
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                ready = self._deliverable(link)
                for k in range(ready):  # older-round envelopes ahead of a hit go
                    if round is None or queue[k][1].round == round:
                        for _ in range(k):
                            queue.popleft()
                        return queue.popleft()[1]
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                if len(queue) > ready and isinstance(self.clock, WallClock):
                    # a wall clock wakes no waiter when a message arrives,
                    # so wait no longer than the first one still in flight
                    arrives = queue[ready][0] - self.clock.now()
                    remaining = arrives if remaining is None else min(remaining, arrives)
                self._waiting += 1
                try:
                    self._conds[dst].wait(remaining)
                finally:
                    self._waiting -= 1

    def pop_newest(self, dst: int, src: int) -> Envelope | None:
        """Newest deliverable envelope from ``src`` without blocking.

        Older deliverable messages stay queued (FIFO order preserved for
        later sequential receives).
        """
        with self._lock:
            link = self._link(src, dst)
            ready = self._deliverable(link)
            if not ready:
                return None
            at_env = link.queue[ready - 1]
            del link.queue[ready - 1]
            return at_env[1]

    def drain(self, dst: int, src: int) -> list[Envelope]:
        """All deliverable envelopes from ``src`` in FIFO order, non-blocking."""
        with self._lock:
            link = self._link(src, dst)
            ready = self._deliverable(link)
            return [link.queue.popleft()[1] for _ in range(ready)]

    def pending(self, dst: int, src: int) -> int:
        with self._lock:
            return self._deliverable(self._link(src, dst))
