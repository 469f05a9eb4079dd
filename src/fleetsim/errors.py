"""Exception types shared across the package."""


class FleetError(Exception):
    """Base class for all package-specific errors."""


class GraphError(FleetError):
    """Malformed graph, bad probability, or failed connectivity resampling."""


class InvalidAgentError(GraphError):
    """Agent index outside 0..n-1."""


class CodecError(FleetError):
    """Value cannot be encoded by the wire codec."""


class DecodeError(CodecError):
    """Byte string is not a valid codec payload."""


class TopologyError(FleetError):
    """Attempt to send to an agent that is not an out-neighbor."""


class ExchangeTimeout(FleetError):
    """A blocking receive or exchange ran out of time.

    Carries ``sender`` (or ``missing``, a list of senders) and ``round``.
    """

    def __init__(self, msg, sender=None, round=None, missing=None):
        super().__init__(msg)
        self.sender = sender
        self.round = round
        self.missing = list(missing) if missing is not None else None


class UnsupportedOperationError(FleetError):
    """Operation not available under the active communicator profile."""


class ModelError(FleetError):
    """State, input, and integrator types do not fit together."""


class NumericError(FleetError):
    """NaN or infinity showed up where a finite number was required."""


class FormationError(FleetError):
    """Formation spec is inconsistent or missing a required distance."""


class LpError(FleetError):
    """LP input malformed or the solver hit its iteration limit."""


class ProtocolError(FleetError):
    """Malformed message inside a distributed optimization protocol."""


class NonConvergenceError(FleetError):
    """Distributed protocol exhausted its round budget or halted without
    agreeing on a result.

    ``diagnostics`` holds per-agent state useful for debugging.
    """

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


def clear_frames(exc: BaseException) -> None:
    """Clear the locals of the finished frames in ``exc``'s traceback, so a
    held error keeps nothing they referred to alive; its file and line
    entries stay, and frames still running, the caller's too, keep theirs."""
    import traceback  # here, so that importing fleetsim does not load it

    traceback.clear_frames(exc.__traceback__)


class CloudError(FleetError):
    """Task cloud bookkeeping violation (double completion, unknown task)."""


class PlanError(FleetError):
    """MPC plan is dynamically inconsistent or otherwise corrupt."""


class FeasibilityError(FleetError):
    """No feasible MPC plan exists and no fallback is available.

    ``diagnostics`` says where it arose: a closed-loop step records its
    time ``t`` and the ``turn`` agent there.
    """

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class RegistrationError(FleetError):
    """Agent could not be registered (duplicate id, incompatible spec)."""


class JobError(FleetError):
    """Base class for optimization-job misuse."""


class BusyError(JobError):
    """An optimization job is already running on this agent."""


class StaleJobError(JobError):
    """The referenced job already finished or never existed."""


class ConfigError(FleetError):
    """Scenario config failed validation; message names the field path."""


class TraceError(FleetError):
    """Trace file unreadable or written by an incompatible schema."""
