"""Robot kinematic models and forward-Euler integration.

Three model families, each a (state, input) pair of frozen values; the
states and inputs that hold vectors keep read-only float64 copies:

* single integrator: pos' = u, 2-d or 3-d
* unicycle: x' = v cos(theta), y' = v sin(theta), theta' = omega
* double integrator: pos' = vel, vel' = a

``step`` advances one sample with explicit Euler, clamping the input to the
integrator's saturation first and wrapping the unicycle heading into
(-pi, pi] after the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericError

__all__ = [
    "SingleIntegratorState",
    "UnicycleState",
    "DoubleIntegratorState",
    "VelocityInput",
    "UnicycleInput",
    "AccelInput",
    "IntegratorConfig",
    "step",
    "wrap_angle",
]

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - theta) % _TWO_PI


def _vec(x, name: str, dims=(2, 3)) -> np.ndarray:
    """A read-only float64 copy of ``x``, so that neither the caller nor a
    reader of the frozen state or input can change it later."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.shape[0] not in dims:
        raise ModelError("%s must be a %s-vector, got shape %s" % (name, "/".join(map(str, dims)), v.shape))
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class SingleIntegratorState:
    pos: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pos", _vec(self.pos, "pos"))


@dataclass(frozen=True)
class UnicycleState:
    x: float
    y: float
    theta: float

    @property
    def pos(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class DoubleIntegratorState:
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self):
        pos = _vec(self.pos, "pos")
        vel = _vec(self.vel, "vel")
        if pos.shape != vel.shape:
            raise ModelError("pos and vel dimensions differ: %s vs %s" % (pos.shape, vel.shape))
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "vel", vel)


@dataclass(frozen=True)
class VelocityInput:
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _vec(self.u, "u"))


@dataclass(frozen=True)
class UnicycleInput:
    v: float
    omega: float


@dataclass(frozen=True)
class AccelInput:
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _vec(self.a, "a"))


@dataclass(frozen=True)
class IntegratorConfig:
    """Sample time plus optional input saturation.

    Saturation semantics per model:

    * velocity / acceleration inputs: symmetric per-component clamp at
      ``saturation`` (a scalar bound)
    * unicycle: ``saturation = (v_max, omega_max)``

    ``saturation=None`` disables clamping.
    """

    dt: float
    saturation: float | tuple[float, float] | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ModelError("dt must be positive, got %r" % (self.dt,))


def _clamp_vec(u: np.ndarray, bound) -> np.ndarray:
    if bound is None:
        return u
    if isinstance(bound, tuple):
        raise ModelError("vector input takes a scalar saturation bound")
    return np.clip(u, -float(bound), float(bound))


def _finite(vec: np.ndarray, what: str) -> None:
    if not all(map(math.isfinite, vec.tolist())):
        raise NumericError("%s contains NaN or inf" % what)


def step(state, inp, cfg: IntegratorConfig):
    """One forward-Euler step. State and input classes must match."""
    dt = cfg.dt
    if isinstance(state, SingleIntegratorState):
        if not isinstance(inp, VelocityInput):
            raise ModelError("single integrator expects VelocityInput, got %s" % type(inp).__name__)
        if inp.u.shape != state.pos.shape:
            raise ModelError("input dimension %s does not match state %s" % (inp.u.shape, state.pos.shape))
        u = _clamp_vec(inp.u, cfg.saturation)
        _finite(u, "velocity input")
        return SingleIntegratorState(state.pos + dt * u)

    if isinstance(state, UnicycleState):
        if not isinstance(inp, UnicycleInput):
            raise ModelError("unicycle expects UnicycleInput, got %s" % type(inp).__name__)
        v, omega = float(inp.v), float(inp.omega)
        if cfg.saturation is not None:
            if not isinstance(cfg.saturation, tuple):
                raise ModelError("unicycle saturation must be a (v_max, omega_max) pair")
            v_max, w_max = cfg.saturation
            v = min(max(v, -v_max), v_max)
            omega = min(max(omega, -w_max), w_max)
        if not (math.isfinite(v) and math.isfinite(omega)):
            raise NumericError("unicycle input contains NaN or inf")
        x = state.x + dt * v * math.cos(state.theta)
        y = state.y + dt * v * math.sin(state.theta)
        theta = wrap_angle(state.theta + dt * omega)
        return UnicycleState(x, y, theta)

    if isinstance(state, DoubleIntegratorState):
        if not isinstance(inp, AccelInput):
            raise ModelError("double integrator expects AccelInput, got %s" % type(inp).__name__)
        if inp.a.shape != state.pos.shape:
            raise ModelError("input dimension %s does not match state %s" % (inp.a.shape, state.pos.shape))
        a = _clamp_vec(inp.a, cfg.saturation)
        _finite(a, "acceleration input")
        return DoubleIntegratorState(state.pos + dt * state.vel, state.vel + dt * a)

    raise ModelError("unknown state type %s" % type(state).__name__)
