"""Per-robot agent harness: guidance, control, dynamics and background jobs.

An :class:`Agent` bundles the layers one robot runs. Pose flows guidance ->
control -> dynamics and back: each cycle the agent publishes its pose to
its out-neighbors, samples neighbor poses from the bus, evaluates its
guidance law into a velocity command, maps that through the control layer
(identity for single integrators, the lookahead-point mapping for
unicycles), and integrates one step.

Layers talk to each other only through values, and agents talk to each
other only through the message bus; an agent object holds no reference to
any other agent, so cross-agent state access is impossible by
construction.

Two driving modes run the same step:

* lockstep, for deterministic simulation: the caller runs the
  ``tick_publish(r)`` / ``tick_compute(r)`` halves across all agents with
  an explicit round index (the kinematic scenario engines in
  :mod:`fleetsim.simrunner` drive every robot this way);
* free-running, via :meth:`Agent.start`: a thread runs :meth:`Agent.tick`
  once per period on a ``best_effort`` communicator, whose gather takes
  the newest arrived pose of each neighbor (rounds are not aligned across
  free-running agents, so pose exchange degrades to state sampling there).
  An exception in the loop ends it and is kept on :attr:`Agent.error`.

Long computations go through the optimization-job contract: at most one
job runs per agent, a job sees a stop event for cooperative cancellation,
and completion hooks registered with :meth:`Agent.on_done` fire exactly
once per finished job. Cancelled jobs never fire hooks. A job whose
callable raises is recorded as cancelled with the error attached (the
status vocabulary stays idle/running/done/cancelled).
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .communicator import Communicator
from .control import SiToUniParams, si_to_unicycle
from .dynamics import (
    DoubleIntegratorState,
    IntegratorConfig,
    SingleIntegratorState,
    UnicycleState,
    VelocityInput,
    step,
)
from .errors import (BusyError, JobError, RegistrationError, StaleJobError,
                     UnsupportedOperationError)
from .transport import MessageBus

__all__ = [
    "AgentSpec",
    "Agent",
    "OptimizationJob",
    "spawn_agent",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_CANCELLED",
]

JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"


@dataclass(frozen=True)
class AgentSpec:
    """Static description of one robot.

    ``law`` is a guidance callable (own_position, {neighbor: position})
    -> velocity vector; every law in :mod:`fleetsim.guidance` fits. The
    type of ``initial_state`` is the model: a ``SingleIntegratorState``
    or a ``UnicycleState``. A unicycle additionally needs ``si_params`` so
    the velocity command can be mapped to (v, omega).
    """

    agent_id: int
    initial_state: object
    law: Callable[[np.ndarray, dict], np.ndarray]
    period: float = 0.01
    si_params: SiToUniParams | None = None
    saturation: object = None


class OptimizationJob:
    """Handle for one background computation owned by an agent."""

    def __init__(self, job_id: int, problem: Callable):
        self.job_id = job_id
        self.problem = problem
        self.status = JOB_RUNNING
        self.result = None
        self.error: BaseException | None = None
        self.stop_event = threading.Event()
        self.thread: threading.Thread | None = None

    def join(self, timeout: float | None = None) -> None:
        if self.thread is not None:
            self.thread.join(timeout)


def _validate_spec(spec: AgentSpec) -> None:
    if spec.period <= 0:
        raise RegistrationError("period must be positive")
    state = spec.initial_state
    if isinstance(state, DoubleIntegratorState):
        raise RegistrationError(
            "velocity-command guidance cannot drive a double integrator; "
            "no acceleration-level law is available"
        )
    if isinstance(state, UnicycleState):
        if spec.si_params is None:
            raise RegistrationError(
                "unicycle model needs si_params to map velocity commands"
            )
    elif isinstance(state, SingleIntegratorState):
        if spec.si_params is not None:
            raise RegistrationError("si_params only applies to the unicycle model")
    else:
        raise RegistrationError("no model for initial state type %s" % type(state).__name__)


class Agent:
    """A running robot: guidance loop plus the optimization-job slot.

    ``last_input`` is the input the last cycle handed to the dynamics:
    the velocity ``u`` for a single integrator, ``(v, omega)`` for a
    unicycle. ``error`` holds the exception that ended the free-running
    loop, if one did.
    """

    def __init__(self, spec: AgentSpec, comm):
        _validate_spec(spec)
        self.spec = spec
        self.comm = comm
        self.state = spec.initial_state
        self._pose: tuple[object, np.ndarray | None] = (None, None)
        self.last_neighbors: dict[int, np.ndarray] = {}
        self.last_input: np.ndarray | tuple[float, float] | None = None
        self.error: BaseException | None = None
        self._cfg = IntegratorConfig(dt=spec.period, saturation=spec.saturation)
        self._round = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop_starts: deque[float] = deque(maxlen=256)
        self._job_lock = threading.Lock()
        self._jobs: dict[int, OptimizationJob] = {}
        self._current: OptimizationJob | None = None
        self._hooks: list[Callable] = []
        self._job_ids = itertools.count()

    # -- pose and stepping ---------------------------------------------------

    @property
    def agent_id(self) -> int:
        return self.spec.agent_id

    @property
    def pose(self) -> np.ndarray:
        """The position of the current state, as a read-only copy built
        once per state."""
        state, pose = self._pose
        if state is not self.state:
            state = self.state
            pose = np.array(state.pos, dtype=float)
            pose.setflags(write=False)
            self._pose = (state, pose)
        return pose

    @property
    def round(self) -> int:
        return self._round

    def tick_publish(self, round: int | None = None) -> None:
        """Send the current pose to all out-neighbors."""
        r = self._round if round is None else int(round)
        self.comm.exchange_send(self.pose, round=r)

    def tick_compute(self, round: int | None = None, timeout: float | None = None) -> None:
        """Gather neighbor poses, run guidance and control, step dynamics.

        In lockstep use the communicator profile decides the gather:
        reliable profiles wait for every active in-neighbor's message for
        the round, best-effort takes whatever is in the mailbox.
        """
        r = self._round if round is None else int(round)
        raw = self.comm.exchange_collect(round=r, timeout=timeout)
        self._apply(raw)
        self._round = r + 1

    def tick(self, round: int | None = None, timeout: float | None = None) -> None:
        r = self._round if round is None else int(round)
        self.tick_publish(r)
        self.tick_compute(r, timeout=timeout)

    def _apply(self, raw: dict[int, object]) -> None:
        neighbors = {j: np.asarray(v, dtype=float) for j, v in raw.items()}
        self.last_neighbors = neighbors
        u = np.asarray(self.spec.law(self.pose, neighbors), dtype=float)
        if isinstance(self.state, UnicycleState):
            inp = si_to_unicycle(u, self.state.theta, self.spec.si_params)
            self.last_input = (inp.v, inp.omega)
        else:
            inp = VelocityInput(u)
            self.last_input = u
        self.state = step(self.state, inp, self._cfg)

    # -- free-running mode -----------------------------------------------------

    def start(self) -> "Agent":
        """Run :meth:`tick` in a thread once every ``spec.period`` seconds, on
        a ``best_effort`` communicator: free-running rounds do not align."""
        if self.comm.profile != "best_effort":
            raise UnsupportedOperationError(
                "free-running agents need the best_effort profile, not %r" % self.comm.profile
            )
        if self._thread is not None and self._thread.is_alive():
            raise RegistrationError("agent %d is already running" % self.agent_id)
        self._stop.clear()
        self.error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="agent-%d" % self.agent_id, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run_loop(self) -> None:
        try:
            while not self._stop.is_set():
                start = time.monotonic()
                self._loop_starts.append(start)
                self.tick()
                self._stop.wait(max(0.0, self.spec.period - (time.monotonic() - start)))
        except BaseException as exc:  # noqa: BLE001 - recorded on the agent
            self.error = exc

    def measured_period(self) -> float:
        """Median spacing between recent loop iterations (free-running mode)."""
        starts = list(self._loop_starts)
        if len(starts) < 2:
            return float("nan")
        return statistics.median(b - a for a, b in zip(starts, starts[1:]))

    # -- optimization jobs -------------------------------------------------------

    def submit_job(self, problem: Callable) -> int:
        """Run ``problem(stop_event)`` concurrently; returns the job id.

        Raises BusyError while another job is running. The job's result is
        delivered to every hook registered via :meth:`on_done`, exactly
        once, unless the job is cancelled first.
        """
        with self._job_lock:
            if self._current is not None and self._current.status == JOB_RUNNING:
                raise BusyError(
                    "agent %d already has job %d running"
                    % (self.agent_id, self._current.job_id)
                )
            job = OptimizationJob(next(self._job_ids), problem)
            self._jobs[job.job_id] = job
            self._current = job
            job.thread = threading.Thread(
                target=self._run_job,
                args=(job,),
                name="agent-%d-job-%d" % (self.agent_id, job.job_id),
                daemon=True,
            )
            job.thread.start()
            return job.job_id

    def _run_job(self, job: OptimizationJob) -> None:
        try:
            result = job.problem(job.stop_event)
        except BaseException as exc:  # noqa: BLE001 - recorded on the job handle
            with self._job_lock:
                job.status = JOB_CANCELLED
                job.error = exc
            return
        with self._job_lock:
            if job.stop_event.is_set() or job.status == JOB_CANCELLED:
                job.status = JOB_CANCELLED
                return
            job.status = JOB_DONE
            job.result = result
            hooks = list(self._hooks)
        for hook in hooks:
            hook(job.job_id, result)

    def cancel_job(self, job_id: int) -> None:
        """Cooperatively cancel a running job.

        The job's stop event is set and its status flips to cancelled
        immediately; the worker notices at its next check. Cancelling a
        job that already finished (or never existed) raises StaleJobError.
        """
        with self._job_lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise StaleJobError("agent %d has no job %d" % (self.agent_id, job_id))
            if job.status != JOB_RUNNING:
                raise StaleJobError(
                    "job %d already finished with status %r" % (job_id, job.status)
                )
            job.stop_event.set()
            job.status = JOB_CANCELLED

    def on_done(self, hook: Callable) -> None:
        """Register ``hook(job_id, result)`` for every future completion."""
        with self._job_lock:
            self._hooks.append(hook)

    def job_handle(self, job_id: int) -> OptimizationJob:
        """The job's handle; an unknown id raises JobError."""
        with self._job_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobError("agent %d has no job %d" % (self.agent_id, job_id))
        return job

    def job_status(self, job_id: int) -> str:
        return self.job_handle(job_id).status

    def job_result(self, job_id: int):
        job = self.job_handle(job_id)
        with self._job_lock:
            if job.status != JOB_DONE:
                raise JobError("job %d is %s, not done" % (job_id, job.status))
            return job.result


def spawn_agent(spec: AgentSpec, bus: MessageBus, graph, profile: str = "static") -> Agent:
    """Create an agent and register its communicator; it does not run yet.

    A duplicate id, an initial state of an unsupported type, or
    ``si_params`` that do not fit that state raise RegistrationError, and
    a bad spec leaves the id unregistered.
    Call :meth:`Agent.start` once every neighbor is registered, or drive
    the agent in lockstep.
    """
    _validate_spec(spec)
    return Agent(spec, Communicator(bus, spec.agent_id, graph, profile=profile))
