"""Integrator model tests: exact arithmetic cases and convergence checks."""

import math

import numpy as np
import pytest

from fleetsim.dynamics import (
    AccelInput,
    DoubleIntegratorState,
    IntegratorConfig,
    SingleIntegratorState,
    UnicycleInput,
    UnicycleState,
    VelocityInput,
    step,
    wrap_angle,
)
from fleetsim.errors import ModelError, NumericError


def test_wrap_angle_values():
    assert wrap_angle(0.5) == 0.5
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    # range contract: output in (-pi, pi]
    for theta in np.linspace(-20, 20, 401):
        w = wrap_angle(float(theta))
        assert -math.pi < w <= math.pi


def test_zero_input_is_exact_fixed_point():
    cfg = IntegratorConfig(dt=0.01)
    si = SingleIntegratorState(np.array([1.25, -0.5]))
    assert np.array_equal(step(si, VelocityInput(np.zeros(2)), cfg).pos, si.pos)

    uni = UnicycleState(0.3, -0.7, 1.1)
    nxt = step(uni, UnicycleInput(0.0, 0.0), cfg)
    assert (nxt.x, nxt.y, nxt.theta) == (uni.x, uni.y, uni.theta)

    di = DoubleIntegratorState(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    nxt = step(di, AccelInput(np.zeros(2)), cfg)
    assert np.array_equal(nxt.pos, di.pos) and np.array_equal(nxt.vel, di.vel)


def test_euler_accumulation_exact():
    """With power-of-two dt and integer input the sum has no rounding at all."""
    dt = 2.0**-7
    cfg = IntegratorConfig(dt=dt)
    u = np.array([3.0, -2.0])
    state = SingleIntegratorState(np.array([0.0, 0.0]))
    for k in range(1, 1025):
        state = step(state, VelocityInput(u), cfg)
        assert np.array_equal(state.pos, k * dt * u)


def test_unicycle_straight_line():
    cfg = IntegratorConfig(dt=0.5)
    s = UnicycleState(0.0, 0.0, 0.0)
    s = step(s, UnicycleInput(2.0, 0.0), cfg)
    assert s.x == pytest.approx(1.0) and s.y == pytest.approx(0.0)
    assert s.theta == 0.0


def test_unicycle_circle_radius():
    """v=1, omega=1 traces a circle of radius v/omega to within 0.1%."""
    dt = 1e-3
    cfg = IntegratorConfig(dt=dt)
    s = UnicycleState(0.0, 0.0, 0.0)
    pts = []
    for _ in range(int(round(2 * math.pi / dt)) + 1):
        s = step(s, UnicycleInput(1.0, 1.0), cfg)
        pts.append((s.x, s.y))
    pts = np.array(pts)
    center = pts.mean(axis=0)
    radii = np.linalg.norm(pts - center, axis=1)
    assert abs(radii.mean() - 1.0) < 1e-3
    assert radii.std() < 1e-3


def test_theta_wraps_after_update():
    cfg = IntegratorConfig(dt=1.0)
    s = UnicycleState(0.0, 0.0, math.pi - 0.01)
    s = step(s, UnicycleInput(0.0, 0.02), cfg)
    assert -math.pi < s.theta <= math.pi
    assert s.theta == pytest.approx(-math.pi + 0.01)


def test_double_integrator_step():
    cfg = IntegratorConfig(dt=0.1)
    s = DoubleIntegratorState(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
    s = step(s, AccelInput(np.array([2.0, 0.0])), cfg)
    assert s.pos == pytest.approx(np.array([0.1, -0.1]))
    assert s.vel == pytest.approx(np.array([1.2, -1.0]))


def test_scalar_saturation_clamps_vector_input():
    # per-component clamp into [-b, b]
    cfg = IntegratorConfig(dt=1.0, saturation=1.0)
    s = SingleIntegratorState(np.zeros(2))
    s = step(s, VelocityInput(np.array([3.0, -4.0])), cfg)
    assert s.pos == pytest.approx(np.array([1.0, -1.0]))


def test_small_input_not_clamped():
    cfg = IntegratorConfig(dt=1.0, saturation=10.0)
    s = SingleIntegratorState(np.zeros(2))
    s = step(s, VelocityInput(np.array([0.3, 0.4])), cfg)
    assert s.pos == pytest.approx(np.array([0.3, 0.4]))


def test_tuple_saturation_clamps_unicycle():
    cfg = IntegratorConfig(dt=1.0, saturation=(1.0, 0.5))
    s = UnicycleState(0.0, 0.0, 0.0)
    s = step(s, UnicycleInput(5.0, -3.0), cfg)
    assert s.x == pytest.approx(1.0)
    assert s.theta == pytest.approx(-0.5)


def test_saturation_kind_mismatch():
    with pytest.raises(ModelError):
        step(
            SingleIntegratorState(np.zeros(2)),
            VelocityInput(np.zeros(2)),
            IntegratorConfig(dt=0.1, saturation=(1.0, 1.0)),
        )
    with pytest.raises(ModelError):
        step(
            UnicycleState(0.0, 0.0, 0.0),
            UnicycleInput(1.0, 1.0),
            IntegratorConfig(dt=0.1, saturation=2.0),
        )


def test_state_input_type_mismatch():
    cfg = IntegratorConfig(dt=0.1)
    with pytest.raises(ModelError):
        step(SingleIntegratorState(np.zeros(2)), UnicycleInput(1.0, 0.0), cfg)
    with pytest.raises(ModelError):
        step(UnicycleState(0.0, 0.0, 0.0), VelocityInput(np.zeros(2)), cfg)
    with pytest.raises(ModelError):
        step(DoubleIntegratorState(np.zeros(2), np.zeros(2)), VelocityInput(np.zeros(2)), cfg)


def test_dimension_mismatch():
    cfg = IntegratorConfig(dt=0.1)
    with pytest.raises(ModelError):
        step(SingleIntegratorState(np.zeros(2)), VelocityInput(np.zeros(3)), cfg)
    with pytest.raises(ModelError):
        step(
            DoubleIntegratorState(np.zeros(2), np.zeros(2)),
            AccelInput(np.zeros(1)),
            cfg,
        )


def test_nan_input_raises():
    cfg = IntegratorConfig(dt=0.1)
    with pytest.raises(NumericError):
        step(SingleIntegratorState(np.zeros(2)), VelocityInput(np.array([np.nan, 0.0])), cfg)
    with pytest.raises(NumericError):
        step(UnicycleState(0.0, 0.0, 0.0), UnicycleInput(float("nan"), 0.0), cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_vector_inputs_raise_by_name(bad, dim):
    """A NaN or an infinity in any component of a velocity or an
    acceleration raises, naming the input; a clamp passes a NaN on."""
    cfg = IntegratorConfig(dt=0.1)
    clamped = IntegratorConfig(dt=0.1, saturation=1.0)
    for k in range(dim):
        vec = np.zeros(dim)
        vec[k] = bad
        single = SingleIntegratorState(np.zeros(dim))
        double = DoubleIntegratorState(np.zeros(dim), np.zeros(dim))
        for c in (cfg, clamped) if math.isnan(bad) else (cfg,):
            with pytest.raises(NumericError, match=r"^velocity input contains NaN or inf$"):
                step(single, VelocityInput(vec), c)
            with pytest.raises(NumericError, match=r"^acceleration input contains NaN or inf$"):
                step(double, AccelInput(vec), c)


def test_bad_dt():
    with pytest.raises(ModelError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ModelError):
        IntegratorConfig(dt=-0.01)


def test_states_are_immutable():
    s = SingleIntegratorState(np.array([1.0, 2.0]))
    with pytest.raises(Exception):
        s.pos = np.zeros(2)


@pytest.mark.parametrize("make, fields", [
    (SingleIntegratorState, ("pos",)),
    (lambda x: DoubleIntegratorState(x, x), ("pos", "vel")),
    (VelocityInput, ("u",)),
    (AccelInput, ("a",)),
])
def test_vector_fields_are_read_only_copies(make, fields):
    """A frozen state or input shares no memory with the caller's array,
    and nobody can write to the arrays it holds."""
    x = np.array([1.0, 2.0])
    value = make(x)
    x[0] = 99.0
    for name in fields:
        held = getattr(value, name)
        assert held.dtype == np.float64 and not held.flags.writeable
        with pytest.raises(ValueError):
            held[1] = -5.0
        assert held.tolist() == [1.0, 2.0]
    ints = make(np.array([1, 2]))
    assert all(getattr(ints, name).dtype == np.float64 for name in fields)


def test_unicycle_position_is_float():
    assert UnicycleState(1, 2, 0).pos.dtype == np.float64


def test_3d_single_integrator():
    cfg = IntegratorConfig(dt=0.5)
    s = SingleIntegratorState(np.zeros(3))
    s = step(s, VelocityInput(np.array([2.0, 0.0, -2.0])), cfg)
    assert s.pos == pytest.approx(np.array([1.0, 0.0, -1.0]))
