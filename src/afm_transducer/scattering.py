"""Coupled-mode dynamics matrices and the exact scattering solution.

The internal modes are ordered (microwave cavity, magnon alpha, magnon
beta, optical mode); without an optical cavity there is no fourth mode.
The frequency-domain scattering matrix is

    S(omega) = I - B^T [-i omega I + A]^{-1} B

where A collects mode frequencies, decay rates and couplings and B the
couplings of the modes to the four ports.  Ports are the itinerant
microwave field on index 0 and the itinerant optical field on index 3;
the transduction efficiency is |S[3, 0]|^2 and the microwave reflection
|S[0, 0]|^2.

Array probe frequencies and rate fields broadcast to one stack of points,
assembled, solved and checked in one call; a scalar is the 0-d stack.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "Configuration",
    "ModeSystem",
    "DynamicsMatrices",
    "ScatteringResult",
    "build_dynamics",
    "solve_complex_linear",
    "scattering_matrix",
    "scatter",
    "efficiency",
    "reflection",
]

_COND_WARN_THRESHOLD = 1e12
# matrices whose Frobenius bound on cond reaches this get the exact SVD
_SCREEN_CUT = _COND_WARN_THRESHOLD * 1e-3
_PASSIVITY_SLACK = 1e-12


class Configuration(enum.Enum):
    """Whether the optical side is a cavity mode or itinerant light."""

    WITH_OPTICAL_CAVITY = "with-optical-cavity"
    WITHOUT_OPTICAL_CAVITY = "without-optical-cavity"


@dataclass(frozen=True)
class ModeSystem:
    """Assembled mode system for one configuration (all rad/s).

    With an optical cavity the zeta couplings and optical decay rates are
    active and the xi fields must stay zero; without one, there are three
    modes and the xi fields couple the magnons directly to the itinerant
    light.  ``delta_omega_o`` is a signed detuning; the optical response
    peaks at probe frequency -delta_omega_o, so resonance locking sets it
    to minus the probe.  Any rate field may be an array over sweep points;
    array fields broadcast to one stack of systems.
    """

    configuration: Configuration
    omega_e: float
    omega_alpha: float
    omega_beta: float
    kappa_ee: float
    kappa_ei: float
    gamma_alpha: float
    gamma_beta: float
    delta_omega_o: float = 0.0
    kappa_oe: float = 0.0
    kappa_oi: float = 0.0
    g_alpha: float = 0.0
    g_beta: float = 0.0
    zeta_alpha: float = 0.0
    zeta_beta: float = 0.0
    xi_alpha: float = 0.0
    xi_beta: float = 0.0

    def __post_init__(self):
        # decay rates and the square-rooted xi couplings must be non-negative;
        # g and zeta signs are a gauge choice and physical outputs ignore them
        for name in (
            "kappa_ee", "kappa_ei", "kappa_oe", "kappa_oi",
            "gamma_alpha", "gamma_beta", "xi_alpha", "xi_beta",
        ):
            if np.count_nonzero(getattr(self, name) < 0):
                raise ValueError(f"{name} must be non-negative")
        if self.configuration is Configuration.WITH_OPTICAL_CAVITY:
            if np.count_nonzero(self.xi_alpha) or np.count_nonzero(self.xi_beta):
                raise ValueError("xi couplings are unused with an optical cavity")
        else:
            if np.count_nonzero(self.zeta_alpha) or np.count_nonzero(self.zeta_beta):
                raise ValueError("zeta couplings require an optical cavity")
            if np.count_nonzero(self.kappa_oe) or np.count_nonzero(self.kappa_oi):
                raise ValueError("optical cavity decay rates require an optical cavity")

    @property
    def kappa_e(self) -> float:
        return self.kappa_ee + self.kappa_ei

    @property
    def kappa_o(self) -> float:
        return self.kappa_oe + self.kappa_oi


@dataclass(frozen=True)
class DynamicsMatrices:
    """The matrices A (complex symmetric) and B (real port couplings).

    A is modes x modes and B modes x 4 ports; there are four modes with
    an optical cavity and three without one.  A stack of systems gives
    stacks of both, of shape (..., modes, modes) and (..., modes, 4).
    """

    a: np.ndarray
    b: np.ndarray
    configuration: Configuration

    def __post_init__(self):
        self.a.flags.writeable = False
        self.b.flags.writeable = False


def build_dynamics(system: ModeSystem) -> DynamicsMatrices:
    """Assemble the dynamics matrices of the configuration.

    With an optical cavity:

        A = [[i w_e + k_e/2, i g_a,          i g_b,          0            ],
             [i g_a,         i w_a + gam_a/2, 0,             i zeta_a     ],
             [i g_b,         0,              i w_b + gam_b/2, i zeta_b    ],
             [0,             i zeta_a,       i zeta_b,       -i dwo + k_o/2]]

    and B = diag(sqrt(k_ee), 0, 0, sqrt(k_oe)).  Without one, A is the
    3x3 block of (microwave, alpha, beta), B is 3x4, and the optical
    port enters the magnon rows through B[1, 3] = sqrt(xi_a) and
    B[2, 3] = sqrt(xi_b).
    """
    s = system
    cavity = s.configuration is Configuration.WITH_OPTICAL_CAVITY
    modes = 4 if cavity else 3
    stack = np.broadcast(*vars(s).values()).shape
    a = np.zeros(stack + (modes, modes), dtype=complex)
    b = np.zeros(stack + (modes, 4), dtype=float)
    a[..., 0, 0] = 1j * s.omega_e + s.kappa_e / 2.0
    a[..., 1, 1] = 1j * s.omega_alpha + s.gamma_alpha / 2.0
    a[..., 2, 2] = 1j * s.omega_beta + s.gamma_beta / 2.0
    a[..., 0, 1] = a[..., 1, 0] = 1j * s.g_alpha
    a[..., 0, 2] = a[..., 2, 0] = 1j * s.g_beta
    b[..., 0, 0] = np.sqrt(s.kappa_ee)
    if cavity:
        a[..., 3, 3] = -1j * s.delta_omega_o + s.kappa_o / 2.0
        a[..., 1, 3] = a[..., 3, 1] = 1j * s.zeta_alpha
        a[..., 2, 3] = a[..., 3, 2] = 1j * s.zeta_beta
        b[..., 3, 3] = np.sqrt(s.kappa_oe)
    else:
        b[..., 1, 3] = np.sqrt(s.xi_alpha)
        b[..., 2, 3] = np.sqrt(s.xi_beta)
    return DynamicsMatrices(a=a, b=b, configuration=s.configuration)


def _point(index: int, omega, stack: tuple) -> str:
    """Name one point of a flattened stack, with its probe frequency when known."""
    if omega is None:
        return f"point {index}"
    return f"point {index} (omega = {np.broadcast_to(omega, stack).ravel()[index]:g} rad/s)"


def _frobenius_squared(z: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack, summed over views of z."""
    return sum(np.einsum("...ij,...ij->...", part, part) for part in (z.real, z.imag))


def solve_complex_linear(matrix: np.ndarray, rhs: np.ndarray, omega=None) -> np.ndarray:
    """Pivoted dense solve of matrix @ x = rhs with a conditioning check.

    ``matrix`` is one square matrix or a stack (..., n, n), solved in one
    call; ``omega``, when given, broadcasts to the probe frequency of each
    matrix for the messages.  Emits one warning when the 2-norm condition
    number of any matrix is non-finite or exceeds 1e12, naming how many
    did, the worst and where it sits.  Raises :class:`SingularMatrixError`
    naming the first exactly singular matrix.  The solution never goes
    through the inverse; the inverse only screens which matrices need the
    condition number from an SVD.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("matrix must be square")
    stack, n = matrix.shape[:-2], matrix.shape[-1]
    try:
        # ||M||_F ||M^-1||_F >= ||M||_2 ||M^-1||_2 = cond, so a point whose
        # bound is below 1e9 is far below the 1e12 threshold.  Below a bound
        # of 1e9 the computed inverse is accurate to about n 1e9 eps, so the
        # computed bound is too; at a true cond >= 1e12, LU backward
        # stability makes the inverse that of a matrix within about
        # n eps ||M|| of M, whose cond stays far above 1e9.  Every other
        # point, NaN and inf included, takes the exact SVD below.
        bound_squared = _frobenius_squared(np.linalg.inv(matrix)) * _frobenius_squared(matrix)
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        # the stack fails as a whole; det is exactly 0 where the LU
        # factorisation meets the zero pivot that made it fail
        first = int(np.argmax(np.ravel(np.linalg.det(matrix)) == 0))
        where = _point(first, omega, stack)
        raise SingularMatrixError(f"dynamics matrix is singular at {where}") from exc
    screened = np.flatnonzero(~(bound_squared < _SCREEN_CUT**2))
    cond = np.zeros(bound_squared.size)
    if screened.size:
        cond[screened] = np.linalg.cond(matrix.reshape(-1, n, n)[screened])
    ill = np.count_nonzero(~(cond <= _COND_WARN_THRESHOLD))
    if ill:
        worst = int(np.argmax(cond))  # nan ranks first, then inf
        warnings.warn(
            f"linear system is ill-conditioned at {ill} of {cond.size} points (worst "
            f"cond ~ {cond[worst]:.2e} at {_point(worst, omega, stack)}); "
            "results may lose precision",
            stacklevel=2,
        )
    return solution


def scattering_matrix(dm: DynamicsMatrices, omega) -> np.ndarray:
    """Exact scattering matrix S(omega) = I - B^T [-i omega I + A]^{-1} B.

    ``omega`` broadcasts against the stack of ``dm``; S is (..., 4, 4).
    """
    omega = np.asarray(omega, dtype=float)
    m = -1j * omega[..., None, None] * np.eye(dm.a.shape[-1]) + dm.a
    x = solve_complex_linear(m, dm.b, omega=omega)
    # free M and subtract in place: at most two stacks of the sweep's size are alive
    del m
    s = np.swapaxes(dm.b, -1, -2) @ x
    return np.subtract(np.eye(4), s, out=s)


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering matrices at the probe frequencies, with arrays of port figures per point."""

    omega: float | np.ndarray
    s: np.ndarray
    eta: float | np.ndarray
    reflection: float | np.ndarray

    def __post_init__(self):
        for label, value in (("efficiency", self.eta), ("reflection", self.reflection)):
            value = np.ravel(value)
            outside = value[~((0.0 <= value) & (value <= 1.0 + _PASSIVITY_SLACK))]
            if outside.size:
                raise ValueError(f"{label} out of the passive range: {outside[0]!r}")
        self.s.flags.writeable = False


def _modulus(z: np.ndarray) -> np.ndarray:
    # hypot is the scalar abs(z) bit for bit; the vectorised np.abs on
    # complex arrays differs from it in the last bit
    return np.hypot(z.real, z.imag)


def efficiency(s: np.ndarray) -> float | np.ndarray:
    """Transduction efficiency |S[3, 0]|^2, per point of a stack.

    The dynamics matrix is complex symmetric, so |S41| and |S14| agree;
    this is asserted at every point rather than assumed.
    """
    forward = _modulus(s[..., 3, 0])
    backward = _modulus(s[..., 0, 3])
    violated = np.flatnonzero(abs(forward - backward) > 1e-12)
    if violated.size:
        i = violated[0]
        raise AssertionError(
            f"scattering reciprocity violated at point {i}: "
            f"|S41| = {np.ravel(forward)[i]!r}, |S14| = {np.ravel(backward)[i]!r}"
        )
    return forward * forward


def reflection(s: np.ndarray) -> float | np.ndarray:
    """Microwave port reflection |S[0, 0]|^2, per point of a stack."""
    r = _modulus(s[..., 0, 0])
    return r * r


def scatter(system: ModeSystem, omega) -> ScatteringResult:
    """Build the dynamics, solve at every probe frequency in one call and package results."""
    s = scattering_matrix(build_dynamics(system), omega)
    return ScatteringResult(
        omega=omega, s=s, eta=efficiency(s), reflection=reflection(s)
    )
