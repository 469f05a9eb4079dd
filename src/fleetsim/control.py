"""Low-level controllers bridging velocity commands and unicycle hardware."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import UnicycleInput, UnicycleState, wrap_angle
from .errors import ModelError

__all__ = ["SiToUniParams", "TrackerGains", "si_to_unicycle", "track_point"]


@dataclass(frozen=True)
class SiToUniParams:
    """Near-identity mapping parameters.

    ``lookahead`` is the offset of the controlled point ahead of the axle;
    the commanded point velocity is realized exactly for that offset point,
    so position errors of the robot itself stay on the order of the
    lookahead distance. Clamps are applied after the mapping.
    """

    lookahead: float = 0.05
    v_max: float = math.inf
    omega_max: float = math.inf

    def __post_init__(self):
        if not self.lookahead > 0:
            raise ModelError("lookahead must be positive, got %r" % (self.lookahead,))


@dataclass(frozen=True)
class TrackerGains:
    """Gains for the polar point tracker (defaults tuned for desk scale)."""

    k_lin: float = 0.8
    k_ang: float = 2.0
    arrive_radius: float = 0.02


def si_to_unicycle(u: np.ndarray, theta: float, params: SiToUniParams) -> UnicycleInput:
    """Map a planar velocity command to (v, omega) for a unicycle.

    v is the component of u along the heading; omega turns the heading
    toward u with authority 1/lookahead.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (2,):
        raise ModelError("si_to_unicycle expects a 2-d velocity, got shape %s" % (u.shape,))
    ux, uy = u.tolist()
    c, s = math.cos(theta), math.sin(theta)
    v = c * ux + s * uy
    omega = (-s * ux + c * uy) / params.lookahead
    v = min(max(v, -params.v_max), params.v_max)
    omega = min(max(omega, -params.omega_max), params.omega_max)
    return UnicycleInput(v, omega)


def track_point(pose: UnicycleState, target, gains: TrackerGains = TrackerGains()) -> UnicycleInput:
    """Drive a unicycle to a planar point.

    Polar-form law: with range rho and bearing error alpha,
    v = k_lin * rho * cos(alpha) clamped at zero (no reversing) and
    omega = k_ang * alpha. Inside ``arrive_radius`` the command is (0, 0).
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (2,):
        raise ModelError("track_point expects a 2-d target, got shape %s" % (target.shape,))
    dx = target[0] - pose.x
    dy = target[1] - pose.y
    rho = math.hypot(dx, dy)
    if rho < gains.arrive_radius:
        return UnicycleInput(0.0, 0.0)
    alpha = wrap_angle(math.atan2(dy, dx) - pose.theta)
    v = max(gains.k_lin * rho * math.cos(alpha), 0.0)
    return UnicycleInput(v, gains.k_ang * alpha)
