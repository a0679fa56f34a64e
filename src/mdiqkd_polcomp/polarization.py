"""Jones-calculus primitives for polarization channels.

Conventions used throughout the package:

1. Jones vectors are length-2 complex arrays in the (H, V) basis:
   H = (1, 0), V = (0, 1), D = (H + V)/sqrt(2), A = (H - V)/sqrt(2).
2. Stokes axes map onto Pauli matrices as S1 <-> diag(1, -1) (H/V),
   S2 <-> [[0, 1], [1, 0]] (D/A), S3 <-> [[0, -i], [i, 0]] (circular).
3. A retarder with axis n (unit Stokes vector) and retardance r applies
   U = cos(r/2) I - i sin(r/2) (n . sigma), which rotates Stokes vectors
   by the angle r about n (right-handed).
4. Channel misalignment is summarized by two angles: theta_z =
   arcsin(sqrt(e_z)) with e_z = |<V|U|H>|^2, and theta_x defined the same
   way from the D/A pair.  Both vanish iff U is the identity up to a
   global phase.

A rotation's four entries are written in closed form from cos(r/2),
sin(r/2) and the normalized axis; they are bit-equal to the sum
cos(r/2) I - i sin(r/2) (n1 S1 + n2 S2 + n3 S3) formed with numpy
(equal as numbers; the sign of a zero entry may differ).  Products of
two matrices stay numpy `@`: the same products written in Python complex
arithmetic differ from it in the last bit for most random matrices, and
the drift walk and every channel would no longer match earlier runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Jones vectors of the six cardinal polarization states.
STATE_H = np.array([1.0, 0.0], dtype=complex)
STATE_V = np.array([0.0, 1.0], dtype=complex)
STATE_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
STATE_A = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
STATE_R = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)
STATE_L = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)

JONES_STATES = {"H": STATE_H, "V": STATE_V, "D": STATE_D, "A": STATE_A,
                "R": STATE_R, "L": STATE_L}

BASIS_STATES = {"Z": ("H", "V"), "X": ("D", "A")}

# Bras of the leakage ports that basis_error_rates projects onto.
_BRA_V = STATE_V.conj()
_BRA_A = STATE_A.conj()

IDENTITY = np.eye(2, dtype=complex)

UNITARITY_TOL = 1e-10

# Stokes axes of the four squeezers, in light-propagation order.  Adjacent
# squeezers alternate between the H/V axis and the D/A axis so the bank
# spans all of SU(2) with one axis pair.
DEFAULT_SQUEEZER_AXES = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
])

RETARDANCE_LIMIT = 2.0 * math.pi


class PolarizationError(ValueError):
    """Raised for invalid polarization-layer inputs."""


def bb84_state(basis: str, bit: int) -> np.ndarray:
    """Jones vector for a basis/bit pair (Z: H/V, X: D/A; bit 0 maps to H or D)."""
    if basis not in BASIS_STATES:
        raise PolarizationError(f"unknown basis {basis!r}, expected 'Z' or 'X'")
    if bit not in (0, 1):
        raise PolarizationError(f"bit must be 0 or 1, got {bit!r}")
    return JONES_STATES[BASIS_STATES[basis][bit]].copy()


def is_unitary(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    """True when matrix is 2x2 and satisfies U^dag U = I within tol."""
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        return False
    return bool(np.max(np.abs(matrix.conj().T @ matrix - IDENTITY)) <= tol)


def require_unitary(matrix: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if not is_unitary(matrix, tol):
        raise PolarizationError("matrix is not unitary within tolerance "
                                f"{tol:g}")
    return matrix


def _unit_axis(axis) -> tuple:
    """Normalized Stokes axis as three floats."""
    axis = np.asarray(axis, dtype=float)
    norm = math.sqrt(axis.dot(axis))  # what np.linalg.norm computes
    if not norm > 0:
        raise PolarizationError("rotation axis must be nonzero")
    return tuple((axis / norm).tolist())


def _rotation(n1: float, n2: float, n3: float, angle: float) -> np.ndarray:
    """cos(r/2) I - i sin(r/2) (n . sigma) for a unit axis, entry by entry."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[complex(c, -s * n1), complex(-s * n3, -s * n2)],
                     [complex(s * n3, -s * n2), complex(c, s * n1)]])


def rotation_about_stokes_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unitary rotating the Poincare sphere by `angle` about Stokes axis `axis`."""
    return _rotation(*_unit_axis(axis), angle)


def rotation_angle(unitary: np.ndarray) -> float:
    """Poincare-sphere rotation angle of a 2x2 unitary (global phase removed)."""
    unitary = np.asarray(unitary, dtype=complex)
    # |tr U| = 2 |cos(angle/2)| for U = e^{i phi} (cos(a/2) I - i sin(a/2) n.sigma).
    half_cos = min(abs(np.trace(unitary)) / 2.0, 1.0)
    return 2.0 * math.acos(half_cos)


def basis_error_rates(unitary: np.ndarray) -> tuple[float, float]:
    """Leakage probabilities (e_z, e_x) of a channel for the two bases.

    e_z is the probability that H sent through the channel is projected
    onto V; e_x the same for the D/A pair.
    """
    unitary = np.asarray(unitary, dtype=complex)
    e_z = abs(_BRA_V @ (unitary @ STATE_H)) ** 2
    e_x = abs(_BRA_A @ (unitary @ STATE_D)) ** 2
    return float(min(e_z, 1.0)), float(min(e_x, 1.0))


def misalignment_angles(unitary: np.ndarray) -> tuple[float, float]:
    """Per-basis misalignment angles (theta_z, theta_x) in radians.

    theta = arcsin(sqrt(e)) for the basis leakage e, so sin(theta)^2
    recovers e exactly.  Both angles are zero iff the channel is the
    identity up to a global phase.
    """
    e_z, e_x = basis_error_rates(unitary)
    return math.asin(math.sqrt(e_z)), math.asin(math.sqrt(e_x))


def state_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """|<a|b>|^2 for normalized Jones vectors."""
    return float(abs(np.asarray(state_a).conj() @ np.asarray(state_b)) ** 2)


class DriftProcess:
    """Isotropic random walk on the channel unitary.

    Each step composes the current unitary with a rotation about a
    uniformly random Stokes axis.  The rotation angle is |Normal(0, s)|
    with s chosen so the mean per-step angle equals rate * sqrt(dt)
    (E|Normal(0, s)| = s * sqrt(2/pi)).  The sqrt(dt) law is the
    diffusive scaling: one step of dt behaves like the composition of
    many shorter steps covering the same span, so callers that advance
    the walk at different granularities (per window or per sub-interval)
    see statistically consistent drift.  At dt = 1 s the mean per-step
    angle equals the configured rate, and over any horizon T >= 1 s the
    expected displacement per second stays at or below the rate.  The
    walk is deterministic given the seed.
    """

    def __init__(self, rate: float, seed, initial: np.ndarray | None = None):
        if rate < 0:
            raise PolarizationError("drift rate must be nonnegative")
        self.rate = float(rate)
        self._rng = np.random.default_rng(seed)
        self.unitary = (IDENTITY.copy() if initial is None
                        else require_unitary(initial))

    def step(self, dt: float) -> np.ndarray:
        """Advance the walk by dt seconds and return the new unitary."""
        if dt < 0:
            raise PolarizationError("dt must be nonnegative")
        sigma = self.rate * math.sqrt(dt) * math.sqrt(math.pi / 2.0)
        angle = abs(self._rng.normal(0.0, sigma)) if sigma > 0 else 0.0
        axis = self._random_axis()
        self.unitary = rotation_about_stokes_axis(axis, angle) @ self.unitary
        return self.unitary

    def _random_axis(self) -> np.ndarray:
        # Uniform direction on the sphere via a normalized Gaussian triple.
        while True:
            vec = self._rng.normal(size=3)
            norm = math.sqrt(vec.dot(vec))
            if norm > 1e-12:
                return vec / norm


def random_misalignment(mean_angle: float, seed) -> np.ndarray:
    """Random channel whose per-step rotation has the given mean angle.

    Used to model the residual error left by manual initial alignment.
    """
    drift = DriftProcess(rate=mean_angle, seed=seed)
    return drift.step(1.0)


@dataclass
class SqueezerBank:
    """Four variable retarders on DEFAULT_SQUEEZER_AXES.

    Retardances are clamped to +/- RETARDANCE_LIMIT; a clamped adjustment
    is reported as saturation so the controller can advance to the next
    squeezer.
    """

    retardances: np.ndarray = field(
        default_factory=lambda: np.zeros(len(DEFAULT_SQUEEZER_AXES)))

    def __post_init__(self):
        self.retardances = np.asarray(self.retardances, dtype=float).copy()
        if self.retardances.shape != (len(DEFAULT_SQUEEZER_AXES),):
            raise PolarizationError("need one retardance per squeezer axis")
        if not np.all(np.abs(self.retardances) <= RETARDANCE_LIMIT):
            raise PolarizationError("initial retardance outside limit")

    def __len__(self) -> int:
        return len(self.retardances)

    def apply_delta(self, index: int, delta: float) -> bool:
        """Add delta to one retardance, clamping at the limit.

        Returns True when the request saturated (was clamped).
        """
        if not 0 <= index < len(self):
            raise PolarizationError(f"squeezer index {index} out of range")
        target = self.retardances[index] + delta
        clamped = float(np.clip(target, -RETARDANCE_LIMIT, RETARDANCE_LIMIT))
        self.retardances[index] = clamped
        return clamped != target


_DEFAULT_UNIT_AXES = [_unit_axis(axis) for axis in DEFAULT_SQUEEZER_AXES]


def squeezer_unitary(bank) -> np.ndarray:
    """Composite unitary of the bank, light passing squeezer 0 first.

    `bank` is a SqueezerBank, or a sequence of retardances on
    DEFAULT_SQUEEZER_AXES, which is how the measurement node composes
    the retardances it receives after checking their count and range.
    """
    if isinstance(bank, SqueezerBank):
        bank = bank.retardances.tolist()
    unitary = IDENTITY
    for axis, retardance in zip(_DEFAULT_UNIT_AXES, bank):
        unitary = _rotation(*axis, retardance) @ unitary
    return unitary
