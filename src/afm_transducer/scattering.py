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
"""

from __future__ import annotations

import enum
import math
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
    to minus the probe.
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.configuration is Configuration.WITH_OPTICAL_CAVITY:
            if self.xi_alpha != 0.0 or self.xi_beta != 0.0:
                raise ValueError("xi couplings are unused with an optical cavity")
        else:
            if self.zeta_alpha != 0.0 or self.zeta_beta != 0.0:
                raise ValueError("zeta couplings require an optical cavity")
            if self.kappa_oe != 0.0 or self.kappa_oi != 0.0:
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
    an optical cavity and three without one.
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
    a = np.zeros((modes, modes), dtype=complex)
    b = np.zeros((modes, 4), dtype=float)
    a[0, 0] = 1j * s.omega_e + s.kappa_e / 2.0
    a[1, 1] = 1j * s.omega_alpha + s.gamma_alpha / 2.0
    a[2, 2] = 1j * s.omega_beta + s.gamma_beta / 2.0
    a[0, 1] = a[1, 0] = 1j * s.g_alpha
    a[0, 2] = a[2, 0] = 1j * s.g_beta
    b[0, 0] = math.sqrt(s.kappa_ee)
    if cavity:
        a[3, 3] = -1j * s.delta_omega_o + s.kappa_o / 2.0
        a[1, 3] = a[3, 1] = 1j * s.zeta_alpha
        a[2, 3] = a[3, 2] = 1j * s.zeta_beta
        b[3, 3] = math.sqrt(s.kappa_oe)
    else:
        b[1, 3] = math.sqrt(s.xi_alpha)
        b[2, 3] = math.sqrt(s.xi_beta)
    return DynamicsMatrices(a=a, b=b, configuration=s.configuration)


def solve_complex_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pivoted dense solve of matrix @ x = rhs with a conditioning check.

    Emits a warning when the condition number exceeds 1e12 and raises
    :class:`SingularMatrixError` on exact singularity.  Never forms an
    explicit inverse.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "dynamics matrix is singular at this probe frequency"
        ) from exc
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > _COND_WARN_THRESHOLD:
        warnings.warn(
            f"linear system is ill-conditioned (cond ~ {cond:.2e}); "
            "results may lose precision",
            stacklevel=2,
        )
    return solution


def scattering_matrix(dm: DynamicsMatrices, omega: float) -> np.ndarray:
    """Exact scattering matrix S(omega) = I - B^T [-i omega I + A]^{-1} B."""
    m = -1j * omega * np.eye(len(dm.a)) + dm.a
    try:
        x = solve_complex_linear(m, dm.b)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"cannot invert dynamics at omega = {omega:g} rad/s in the "
            f"{dm.configuration.value} configuration"
        ) from exc
    return np.eye(4) - dm.b.T @ x


@dataclass(frozen=True)
class ScatteringResult:
    """Scattering matrix at one probe frequency with derived port figures."""

    omega: float
    s: np.ndarray
    eta: float
    reflection: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0 + _PASSIVITY_SLACK:
            raise ValueError(f"efficiency out of the passive range: {self.eta!r}")
        if not 0.0 <= self.reflection <= 1.0 + _PASSIVITY_SLACK:
            raise ValueError(f"reflection out of the passive range: {self.reflection!r}")
        self.s.flags.writeable = False


def efficiency(s: np.ndarray) -> float:
    """Transduction efficiency |S[3, 0]|^2.

    The dynamics matrix is complex symmetric, so |S41| and |S14| agree;
    this is asserted rather than assumed.
    """
    forward = abs(s[3, 0])
    backward = abs(s[0, 3])
    if abs(forward - backward) > 1e-12:
        raise AssertionError(
            f"scattering reciprocity violated: |S41| = {forward!r}, |S14| = {backward!r}"
        )
    return forward * forward


def reflection(s: np.ndarray) -> float:
    """Microwave port reflection |S[0, 0]|^2."""
    r = abs(s[0, 0])
    return r * r


def scatter(system: ModeSystem, omega: float) -> ScatteringResult:
    """Build the dynamics, solve at one probe frequency and package results."""
    s = scattering_matrix(build_dynamics(system), omega)
    return ScatteringResult(
        omega=omega, s=s, eta=efficiency(s), reflection=reflection(s)
    )
