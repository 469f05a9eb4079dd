"""Tests for the interaction laws and the formation spec container."""

import math

import numpy as np
import pytest

from fleetsim.errors import FormationError
from fleetsim.guidance import (
    FormationSpec,
    containment_law,
    containment_velocity,
    formation_law,
    formation_velocity,
    hexagon_formation,
    rendezvous_velocity,
)


def test_rendezvous_velocity_hand_value():
    u = rendezvous_velocity(np.array([0.0, 0.0]), {1: np.array([2.0, 0.0])})
    assert u == pytest.approx(np.array([2.0, 0.0]))


def test_rendezvous_velocity_sums_neighbors():
    u = rendezvous_velocity(
        np.array([1.0, 1.0]),
        {1: np.array([2.0, 1.0]), 2: np.array([0.0, 1.0]), 3: np.array([1.0, 3.0])},
    )
    assert u == pytest.approx(np.array([0.0, 2.0]))


def test_rendezvous_velocity_no_neighbors():
    assert np.array_equal(rendezvous_velocity(np.ones(2), {}), np.zeros(2))


def test_containment_leader_never_moves():
    u = containment_velocity(
        np.array([5.0, -2.0]), {1: np.array([0.0, 0.0])}, is_leader=True, gain=3.0
    )
    assert np.array_equal(u, np.zeros(2))


def test_containment_follower_hand_value():
    u = containment_velocity(
        np.array([0.0, 0.0]), {1: np.array([1.0, 1.0])}, is_leader=False, gain=2.0
    )
    assert u == pytest.approx(np.array([2.0, 2.0]))


def test_formation_velocity_hand_values():
    spec = FormationSpec.from_pairs([(0, 1, 1.0)])
    # too far: pushed toward the neighbor, scaled by the squared-distance error
    u = formation_velocity(
        np.array([0.0, 0.0]), {1: np.array([2.0, 0.0])}, spec, self_id=0
    )
    assert u == pytest.approx(np.array([6.0, 0.0]))
    # too close: pushed away
    u = formation_velocity(
        np.array([0.0, 0.0]), {1: np.array([0.5, 0.0])}, spec, self_id=0
    )
    assert u == pytest.approx(np.array([-0.375, 0.0]))


def test_formation_velocity_at_target_distance_is_zero():
    spec = FormationSpec.from_pairs([(0, 1, 2.0)])
    u = formation_velocity(
        np.array([0.0, 0.0]), {1: np.array([2.0, 0.0])}, spec, self_id=0
    )
    assert u == pytest.approx(np.zeros(2), abs=1e-15)


def shape_potential(x, spec):
    total = 0.0
    for i, j in spec.edges():
        d = spec.distance(i, j)
        diff = float(np.dot(x[i] - x[j], x[i] - x[j])) - d * d
        total += 0.25 * diff * diff
    return total


def test_formation_velocity_is_negative_gradient():
    """The law equals the negative gradient of the quartic shape potential."""
    rng = np.random.default_rng(5)
    spec = FormationSpec.from_pairs(
        [(0, 1, 1.0), (1, 2, 1.5), (2, 3, 0.8), (0, 3, 1.2), (0, 2, 2.0)]
    )
    x = rng.uniform(-2, 2, size=(4, 2))
    h = 1e-5
    for i in range(4):
        neigh = {j: x[j] for j in range(4) if spec.has(i, j)}
        law_val = formation_velocity(x[i], neigh, spec, self_id=i)
        grad = np.zeros(2)
        for k in range(2):
            xp = x.copy()
            xm = x.copy()
            xp[i, k] += h
            xm[i, k] -= h
            grad[k] = (shape_potential(xp, spec) - shape_potential(xm, spec)) / (2 * h)
        ref = -grad
        assert np.linalg.norm(law_val - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


def test_formation_centroid_invariant():
    """Pairwise forces cancel, so the centroid never drifts."""
    rng = np.random.default_rng(9)
    spec = hexagon_formation(1.0)
    x = rng.uniform(0, 2, size=(6, 2))
    dt = 0.01
    for _ in range(200):
        u = np.array(
            [
                formation_velocity(
                    x[i], {j: x[j] for j in range(6) if spec.has(i, j)}, spec, i
                )
                for i in range(6)
            ]
        )
        assert np.linalg.norm(u.sum(axis=0)) <= 1e-9
        x = x + dt * u


def test_formation_spec_from_pairs_errors():
    with pytest.raises(FormationError):
        FormationSpec.from_pairs([(0, 1)])
    with pytest.raises(FormationError):
        FormationSpec.from_pairs([(1, 1, 1.0)])
    with pytest.raises(FormationError):
        FormationSpec.from_pairs([(0, 1, 0.0)])
    with pytest.raises(FormationError):
        FormationSpec.from_pairs([(0, 1, -2.0)])
    with pytest.raises(FormationError):
        FormationSpec.from_pairs([(0, 1, 1.0), (1, 0, 2.0)])
    # restating the same distance is allowed
    spec = FormationSpec.from_pairs([(0, 1, 1.0), (1, 0, 1.0)])
    assert spec.distance(0, 1) == 1.0


def test_formation_spec_queries():
    spec = FormationSpec.from_pairs([(2, 0, 1.0), (1, 2, 2.0)])
    assert spec.edges() == [(0, 2), (1, 2)]
    assert spec.agents() == [0, 1, 2]
    assert spec.has(0, 2) and spec.has(2, 0)
    assert not spec.has(0, 1)
    assert spec.distance(2, 1) == 2.0
    with pytest.raises(FormationError):
        spec.distance(0, 1)


def test_hexagon_formation_geometry():
    side = 1.5
    spec = hexagon_formation(side)
    edges = spec.edges()
    assert len(edges) == 12
    ring = sum(1 for i, j in edges if math.isclose(spec.distance(i, j), side))
    diag = sum(
        1 for i, j in edges if math.isclose(spec.distance(i, j), side * math.sqrt(3))
    )
    assert ring == 6 and diag == 6
    degree = {i: 0 for i in range(6)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert all(d == 4 for d in degree.values())


def test_hexagon_slots_satisfy_spec():
    """The regular hexagon itself has zero residual under its distance spec."""
    side = 1.0
    spec = hexagon_formation(side)
    pts = np.array(
        [
            (side * math.cos(k * math.pi / 3), side * math.sin(k * math.pi / 3))
            for k in range(6)
        ]
    )
    for i, j in spec.edges():
        gap = np.linalg.norm(pts[i] - pts[j])
        assert gap == pytest.approx(spec.distance(i, j))


def test_law_factories():
    leader = containment_law(is_leader=True, gain=4.0)
    assert np.array_equal(leader(np.ones(2), {1: np.zeros(2)}), np.zeros(2))
    follower = containment_law(is_leader=False, gain=2.0)
    assert follower(np.zeros(2), {1: np.array([1.0, 1.0])}) == pytest.approx(
        np.array([2.0, 2.0])
    )
    spec = FormationSpec.from_pairs([(0, 1, 1.0)])
    law = formation_law(spec, self_id=0)
    assert law(np.zeros(2), {1: np.array([2.0, 0.0])}) == pytest.approx(
        np.array([6.0, 0.0])
    )


def test_rendezvous_two_agents_converge():
    x = np.array([[2.0, 0.0], [-2.0, 0.0]])
    dt = 0.05
    for _ in range(200):
        u0 = rendezvous_velocity(x[0], {1: x[1]})
        u1 = rendezvous_velocity(x[1], {0: x[0]})
        x = x + dt * np.array([u0, u1])
    assert np.linalg.norm(x[0] - x[1]) < 1e-6
