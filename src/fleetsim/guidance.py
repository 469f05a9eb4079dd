"""Distributed velocity laws.

Laws are pure functions of the agent's own position and a map of neighbor
positions; agents learn neighbor positions exclusively through the
communicator. Every law tolerates missing neighbors (a lossy round simply
contributes fewer terms), which is what makes the loops robust to packet
loss and time-varying graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import FormationError

__all__ = [
    "FormationSpec",
    "hexagon_formation",
    "rendezvous_velocity",
    "containment_velocity",
    "formation_velocity",
    "containment_law",
    "formation_law",
]

Law = Callable[[np.ndarray, Mapping[int, np.ndarray]], np.ndarray]


def rendezvous_velocity(own: np.ndarray, neigh: Mapping[int, np.ndarray]) -> np.ndarray:
    """Consensus law: u = sum_j (x_j - x_own)."""
    own = np.asarray(own, dtype=float)
    u = np.zeros_like(own)
    for x in neigh.values():
        u += np.asarray(x, dtype=float) - own
    return u


def containment_velocity(own, neigh, is_leader: bool, gain: float = 1.0) -> np.ndarray:
    """Leader-follower containment: leaders hold still, followers average in.

    Followers run the consensus law scaled by ``gain``; leaders return a
    zero command regardless of their neighbors, which pins the target hull.
    """
    own = np.asarray(own, dtype=float)
    if is_leader:
        return np.zeros_like(own)
    return gain * rendezvous_velocity(own, neigh)


@dataclass(frozen=True)
class FormationSpec:
    """Symmetric target inter-robot distances.

    Built from unordered (i, j, d) triples; both orientations are stored so
    lookups never care about order. Conflicting duplicates are rejected.
    """

    distances: dict = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs) -> "FormationSpec":
        dist: dict[tuple[int, int], float] = {}
        for entry in pairs:
            if len(entry) != 3:
                raise FormationError("formation entry %r is not (i, j, d)" % (entry,))
            i, j, d = int(entry[0]), int(entry[1]), float(entry[2])
            if i == j:
                raise FormationError("formation pair (%d, %d) is a self-loop" % (i, j))
            if d <= 0:
                raise FormationError("distance for (%d, %d) must be positive, got %r" % (i, j, d))
            old = dist.get((i, j))
            if old is not None and not math.isclose(old, d):
                raise FormationError("conflicting distances for pair (%d, %d)" % (i, j))
            dist[(i, j)] = d
            dist[(j, i)] = d
        return cls(distances=dist)

    def distance(self, i: int, j: int) -> float:
        try:
            return self.distances[(i, j)]
        except KeyError:
            raise FormationError("no declared distance for pair (%d, %d)" % (i, j)) from None

    def has(self, i: int, j: int) -> bool:
        return (i, j) in self.distances

    def edges(self) -> list[tuple[int, int]]:
        """Each declared pair once, as (min, max)."""
        return sorted({(min(i, j), max(i, j)) for (i, j) in self.distances})


def hexagon_formation(side: float = 1.0) -> FormationSpec:
    """Regular hexagon on 6 robots: ring edges plus next-nearest bracing.

    Ring distances equal ``side``; the six next-nearest pairs are at
    side * sqrt(3), which makes the shape rigid up to rotation,
    translation and reflection.
    """
    pairs = []
    for i in range(6):
        pairs.append((i, (i + 1) % 6, side))
        pairs.append((i, (i + 2) % 6, side * math.sqrt(3.0)))
    return FormationSpec.from_pairs(pairs)


def formation_velocity(own, neigh: Mapping[int, np.ndarray], spec: FormationSpec,
                       self_id: int) -> np.ndarray:
    """Distance-based formation law.

    u = sum_j (||x_own - x_j||^2 - d_ij^2) (x_j - x_own), the negative
    gradient of the quartic shape potential restricted to this robot.
    Neighbor positions are numpy arrays; the 2-d case reads them with
    ``tolist``. A neighbor without a declared distance, or whose position
    has another shape than this robot's, is a wiring bug and raises.

    No step calls BLAS, so the bits do not depend on the BLAS kernel. Each
    squared norm is summed component by component, x then y (then z),
    and the terms are summed in neighbor order from +0.0. The 2-d case
    does this in Python floats, in the same order of operations as the
    numpy expression of the 3-d case.
    """
    return _formation_terms(own, neigh, _squared_distances(spec, self_id, neigh))


def _squared_distances(spec: FormationSpec, self_id: int, neigh) -> tuple:
    return tuple(d * d for d in [spec.distance(self_id, j) for j in neigh])


def _formation_terms(own, neigh, d2: tuple) -> np.ndarray:
    """The law's sum, given the squared target distance of each neighbor."""
    own = np.asarray(own, dtype=float)
    try:
        if own.shape != (2,):
            pts = np.array(list(neigh.values()), dtype=float).reshape(len(neigh), own.size)
            return _stacked_terms(own, pts, d2)
        ox, oy = own.tolist()
        ux = uy = 0.0
        for p, e2 in zip(neigh.values(), d2):
            px, py = p.tolist()
            dx = px - ox
            dy = py - oy
            e = (dx * dx + dy * dy) - e2
            ux += e * dx
            uy += e * dy
        return np.array([ux, uy])
    except (ValueError, TypeError, AttributeError):
        for j, p in neigh.items():
            if not isinstance(p, np.ndarray) or p.shape != own.shape:
                raise FormationError("neighbor %r position is not an array of shape %s: %r"
                                     % (j, own.shape, p)) from None
        raise


def _stacked_terms(own: np.ndarray, pts: np.ndarray, d2: tuple) -> np.ndarray:
    """The law's sum over the rows of ``pts`` in numpy, for any dimension."""
    diff = pts - own
    err = np.add.reduce(diff * diff, axis=1) - d2
    return np.add.reduce(err[:, None] * diff, axis=0, initial=0.0)


def containment_law(is_leader: bool, gain: float = 1.0) -> Law:
    def law(own, neigh):
        return containment_velocity(own, neigh, is_leader, gain)
    return law


def formation_law(spec: FormationSpec, self_id: int) -> Law:
    """:func:`formation_velocity` for robot ``self_id``, with the squared
    target distances kept per tuple of neighbor ids, in order. An
    undeclared neighbor raises on every call, since a lookup that raises
    keeps nothing."""
    squared: dict[tuple, tuple] = {}

    def law(own, neigh):
        ids = tuple(neigh)
        d2 = squared.get(ids)
        if d2 is None:
            d2 = squared[ids] = _squared_distances(spec, self_id, neigh)
        return _formation_terms(own, neigh, d2)
    return law
