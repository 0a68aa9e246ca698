"""Minkowski geometry primitives: vectors, antisymmetric tensors, boosts, dilatations.

Conventions used throughout the package:

* metric signature (+, -, -, -), index 0 is time, units with hbar = c = 1
  (hbar only sets the unit of the proper time s and of q / hbar, see
  propagators, so a classical limit weakens the field instead);
* all four-component objects are plain float arrays of shape (4,), and a
  stack of events is an array of shape (..., 4);
* field-strength tensors F are stored with both indices up, F[mu, nu] = F^{mu nu}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The metric tensor g_{mu nu} = g^{mu nu} = diag(1, -1, -1, -1).  Fixed, never
# configurable -- a configurable signature is an invitation for silent sign bugs.
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.setflags(write=False)


def as_four(v) -> np.ndarray:
    """Coerce v to a float array of shape (4,)."""
    a = np.asarray(v, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a four-component object, got shape {a.shape}")
    return a


def as_events(v) -> np.ndarray:
    """Coerce v to a float array of events, shape (..., 4)."""
    a = np.asarray(v, dtype=float)
    if a.shape[-1:] != (4,):
        raise ValueError(f"expected events of shape (..., 4), got shape {a.shape}")
    return a


def minkowski_dot(u, v):
    """g_{mu nu} u^mu v^nu = u0*v0 - u1*v1 - u2*v2 - u3*v3 over the last axis:
    a float for two four-vectors, an array for stacks of them."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim == v.ndim == 1:       # scalar indexing, at a third of the cost of 0-d arrays
        return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])
    return u[..., 0] * v[..., 0] - u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2] \
        - u[..., 3] * v[..., 3]


@dataclass(frozen=True)
class AntisymTensor:
    """Contravariant antisymmetric rank-2 tensor F^{mu nu} (e.g. the Faraday tensor).

    Antisymmetry is enforced on construction.
    """

    components: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.shape != (4, 4):
            raise ValueError("AntisymTensor needs a 4x4 array")
        if not np.allclose(a, -a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("tensor is not antisymmetric")
        a = 0.5 * (a - a.T)  # kill rounding-level symmetric residue
        a.setflags(write=False)
        object.__setattr__(self, "components", a)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.components, dtype=dtype)

    @staticmethod
    def from_fields(E=(0.0, 0.0, 0.0), B=(0.0, 0.0, 0.0)) -> "AntisymTensor":
        """Build F^{mu nu} from electric and magnetic three-vectors.

        Convention: F^{i0} = E^i (so that the force on a charge at rest is qE),
        F^{ij} = -eps_{ijk} B^k.
        """
        E = np.asarray(E, dtype=float)
        B = np.asarray(B, dtype=float)
        F = np.zeros((4, 4))
        F[1:, 0] = E
        F[0, 1:] = -E
        F[1, 2] = -B[2]
        F[2, 1] = B[2]
        F[2, 3] = -B[0]
        F[3, 2] = B[0]
        F[3, 1] = -B[1]
        F[1, 3] = B[1]
        return AntisymTensor(F)

    def electric(self) -> np.ndarray:
        return self.components[1:, 0].copy()

    def magnetic(self) -> np.ndarray:
        F = self.components
        return np.array([F[3, 2], F[1, 3], F[2, 1]])

    def invariant_f2(self) -> float:
        """F^2 = F^{mu nu} F_{mu nu} = 2(B^2 - E^2)."""
        F = self.components
        F_lower = METRIC @ F @ METRIC
        return float(np.sum(F * F_lower))


def lorentz_boost_matrix(beta) -> np.ndarray:
    """Matrix of a pure boost with velocity beta (three-vector, |beta| < 1)."""
    beta = np.asarray(beta, dtype=float).reshape(3)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError(f"boost speed |beta| = {np.sqrt(b2):.6g} >= 1")
    L = np.eye(4)
    if b2 == 0.0:
        return L
    gamma = 1.0 / np.sqrt(1.0 - b2)
    L[0, 0] = gamma
    L[0, 1:] = L[1:, 0] = gamma * beta
    L[1:, 1:] = np.eye(3) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return L


def lorentz_boost(v, beta) -> np.ndarray:
    """Boost a four-vector; preserves the Minkowski dot product."""
    return lorentz_boost_matrix(beta) @ as_four(v)


def boost_tensor(F, beta) -> AntisymTensor:
    """Boost a contravariant antisymmetric tensor: F -> L F L^T."""
    L = lorentz_boost_matrix(beta)
    return AntisymTensor(L @ np.asarray(F, dtype=float) @ L.T)


@dataclass(frozen=True)
class ScaleMap:
    """The dilatation f(x) -> lambda^d f(x / lambda) for a field of dimension d."""

    lam: float
    dimension: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("scale factor must be positive")

    def __call__(self, x):
        """Map an event: x -> lambda * x (the active transformation of points)."""
        return np.asarray(x, dtype=float) * self.lam


def scale_field(f, mapping: ScaleMap):
    """Return the dilated field x -> lambda^d f(x / lambda)."""
    lam, d = mapping.lam, mapping.dimension
    prefactor = lam ** d

    def scaled(x):
        return prefactor * f(np.asarray(x, dtype=float) / lam)

    return scaled
