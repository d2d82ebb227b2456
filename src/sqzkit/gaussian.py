"""Gaussian-state algebra for multimode squeezed vacuum under loss.

States are kept as (displacement, covariance) pairs in the interleaved
quadrature ordering (q1, p1, ..., qN, pN) with vacuum variance 1 (the hbar=2
convention); transformations are affine symplectic maps x -> S x + d,
V -> S V S^T.  Everything here is a pure function over immutable values; the
arrays inside states and maps are marked read-only.

The closed forms live in `tmsv`, which needs no numpy, and are re-exported
here: :func:`analytic_squeezing` gives the joint-quadrature variances of a
two-mode squeezed vacuum after asymmetric channel loss without building any
matrices; :func:`joint_variances` on an explicitly composed four-mode state
must agree with it to ~1e-10, which the test suite exercises as the module's
primary self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .tmsv import (  # the closed forms, re-exported
    analytic_joint_variances,
    analytic_squeezing,
    lossy_tmsv_moments,
    variance_to_db,
)

# Tolerances used by validation checks (absolute, per entry).
SYMMETRY_ATOL = 1e-12
SYMPLECTIC_ATOL = 1e-10
PHYSICALITY_ATOL = 1e-9

_Z = np.diag([1.0, -1.0])
_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form: n_modes copies of [[0,1],[-1,0]]."""
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _OMEGA_1
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianState:
    """Displacement vector and covariance matrix of an N-mode Gaussian state.

    Attributes
    ----------
    displacement : (2N,) ndarray
        Mean quadrature values, ordering (q1, p1, ..., qN, pN).
    covariance : (2N, 2N) ndarray
        Symmetric covariance matrix; vacuum = identity.
    """

    displacement: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "displacement", _frozen(self.displacement))
        object.__setattr__(self, "covariance", _frozen(self.covariance))
        d, v = self.displacement, self.covariance
        if d.ndim != 1 or v.shape != (d.size, d.size) or d.size % 2:
            raise DimensionMismatchError(
                f"displacement length {d.shape} incompatible with covariance {v.shape}"
            )

    @property
    def n_modes(self) -> int:
        return self.displacement.size // 2

    def validate(self) -> None:
        """Check symmetry and physicality (V + i*Omega >= 0)."""
        v = self.covariance
        if not np.allclose(v, v.T, rtol=0.0, atol=SYMMETRY_ATOL):
            raise InvalidArgumentError("covariance is not symmetric")
        herm = v + 1j * symplectic_form(self.n_modes)
        eigs = np.linalg.eigvalsh(herm)
        if eigs.min() < -PHYSICALITY_ATOL:
            raise InvalidArgumentError(
                f"covariance violates the uncertainty bound (min eig {eigs.min():.3e})"
            )


@dataclass(frozen=True)
class SymplecticMap:
    """Affine symplectic transformation x -> matrix @ x + displacement_offset."""

    matrix: np.ndarray
    displacement_offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "displacement_offset", _frozen(self.displacement_offset))
        s, d = self.matrix, self.displacement_offset
        if s.ndim != 2 or s.shape[0] != s.shape[1] or d.shape != (s.shape[0],):
            raise DimensionMismatchError(f"map shapes {s.shape}, {d.shape} inconsistent")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def is_symplectic(self, atol: float = SYMPLECTIC_ATOL) -> bool:
        omega = symplectic_form(self.n_modes)
        return bool(np.allclose(self.matrix @ omega @ self.matrix.T, omega, rtol=0.0, atol=atol))

    def compose(self, inner: "SymplecticMap") -> "SymplecticMap":
        """Map equal to applying ``inner`` first, then ``self``."""
        if self.matrix.shape != inner.matrix.shape:
            raise DimensionMismatchError("cannot compose maps of different mode counts")
        return SymplecticMap(
            self.matrix @ inner.matrix,
            self.matrix @ inner.displacement_offset + self.displacement_offset,
        )


@dataclass(frozen=True)
class JointVariances:
    """Variances of the +/- joint quadratures of a mode pair.

    The combinations are sqrt(2)-normalized: q_pm = (q_first +- q_second)/sqrt(2),
    and likewise for p.  Vacuum gives 1.0 for all four entries.
    """

    v_q_minus: float
    v_q_plus: float
    v_p_minus: float
    v_p_plus: float


def vacuum_state(n_modes: int) -> GaussianState:
    """N-mode vacuum: zero displacement, identity covariance."""
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _check_pair(mode_pair, n_modes):
    m1, m2 = mode_pair
    if not (0 <= m1 < n_modes and 0 <= m2 < n_modes):
        raise InvalidArgumentError(f"mode pair {mode_pair} out of range for {n_modes} modes")
    if m1 == m2:
        raise InvalidArgumentError("mode pair must be two distinct modes")
    return m1, m2


def _embed(block4: np.ndarray, mode_pair, n_modes) -> np.ndarray:
    """Place a two-mode (4x4) block transformation into a 2N x 2N identity."""
    m1, m2 = mode_pair
    s = np.eye(2 * n_modes)
    idx = [2 * m1, 2 * m1 + 1, 2 * m2, 2 * m2 + 1]
    s[np.ix_(idx, idx)] = block4
    return s


def two_mode_squeeze_map(r: float, mode_pair: tuple[int, int], n_modes: int) -> SymplecticMap:
    """Two-mode squeezer acting on a mode pair.

    Block form: cosh(r)*I on the pair's diagonal blocks, sinh(r)*Z
    (Z = diag(1,-1)) on the off-diagonal blocks, identity elsewhere.
    r = 0 is the identity; negative r swaps the squeezed/anti-squeezed
    combinations.
    """
    m1, m2 = _check_pair(mode_pair, n_modes)
    if not math.isfinite(r):
        raise InvalidArgumentError("squeeze parameter must be finite")
    ch, sh = math.cosh(r), math.sinh(r)
    block = np.block([[ch * np.eye(2), sh * _Z], [sh * _Z, ch * np.eye(2)]])
    return SymplecticMap(_embed(block, (m1, m2), n_modes), np.zeros(2 * n_modes))


def beamsplitter_map(transmittance: float, mode_pair: tuple[int, int], n_modes: int) -> SymplecticMap:
    """Beamsplitter of power transmittance T between two modes.

    Convention: sqrt(T)*I on the diagonal blocks, +sqrt(1-T)*I on the
    (first, second) block and -sqrt(1-T)*I on the (second, first) block.
    Mixing a mode with vacuum through this map models a lossy channel of
    transmittance T for both modes of the pair.
    """
    m1, m2 = _check_pair(mode_pair, n_modes)
    t = float(transmittance)
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError(f"transmittance must be in [0, 1], got {t}")
    ct, st = math.sqrt(t), math.sqrt(1.0 - t)
    block = np.block([[ct * np.eye(2), st * np.eye(2)], [-st * np.eye(2), ct * np.eye(2)]])
    return SymplecticMap(_embed(block, (m1, m2), n_modes), np.zeros(2 * n_modes))


def phase_rotation_map(theta: float, mode: int, n_modes: int) -> SymplecticMap:
    """Quadrature rotation by theta on one mode: q -> q cos(t) + p sin(t)."""
    if not 0 <= mode < n_modes:
        raise InvalidArgumentError(f"mode {mode} out of range for {n_modes} modes")
    c, s = math.cos(theta), math.sin(theta)
    smat = np.eye(2 * n_modes)
    smat[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, s], [-s, c]]
    return SymplecticMap(smat, np.zeros(2 * n_modes))


def apply_map(state: GaussianState, smap: SymplecticMap) -> GaussianState:
    """Affine update: displacement -> S x + d, covariance -> S V S^T."""
    if smap.matrix.shape[0] != state.displacement.size:
        raise DimensionMismatchError(
            f"map is {smap.matrix.shape[0] // 2}-mode but state is {state.n_modes}-mode"
        )
    return GaussianState(
        smap.matrix @ state.displacement + smap.displacement_offset,
        smap.matrix @ state.covariance @ smap.matrix.T,
    )


def joint_variances(state: GaussianState, mode_first: int, mode_second: int) -> JointVariances:
    """Variances of the sqrt(2)-normalized joint quadratures of two modes.

    V(q_pm) = V(q_first)/2 + V(q_second)/2 +- Cov(q_first, q_second), and the
    same for p; read directly off the covariance matrix.
    """
    n = state.n_modes
    if not (0 <= mode_first < n and 0 <= mode_second < n) or mode_first == mode_second:
        raise InvalidArgumentError(f"invalid mode pair ({mode_first}, {mode_second})")
    v = state.covariance
    qf, pf = 2 * mode_first, 2 * mode_first + 1
    qs, ps = 2 * mode_second, 2 * mode_second + 1
    half_q = 0.5 * (v[qf, qf] + v[qs, qs])
    half_p = 0.5 * (v[pf, pf] + v[ps, ps])
    return JointVariances(
        v_q_minus=half_q - v[qf, qs],
        v_q_plus=half_q + v[qf, qs],
        v_p_minus=half_p - v[pf, ps],
        v_p_plus=half_p + v[pf, ps],
    )


def lossy_tmsv_state(r: float, t_b: float, t_c: float) -> GaussianState:
    """Four-mode state: two-mode squeezed vacuum with each mode sent through loss.

    Modes 1 and 2 carry the squeezed pair; beamsplitters of transmittance t_b
    (modes 0,1) and t_c (modes 2,3) mix each with a vacuum ancilla.  Joint
    variances of modes (1, 2) of the result give the delivered squeezing.
    """
    state = apply_map(vacuum_state(4), two_mode_squeeze_map(r, (1, 2), 4))
    state = apply_map(state, beamsplitter_map(t_b, (0, 1), 4))
    return apply_map(state, beamsplitter_map(t_c, (2, 3), 4))
