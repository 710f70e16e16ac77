"""Uniform-mode magnon model of a two-sublattice easy-axis antiferromagnet.

Provides the resonance frequencies of the two uniform precession modes,
the Bogoliubov coefficients that diagonalize the quadratic magnon
Hamiltonian, the magneto-optic mode coefficients, and an independent
numerical (para-unitary) diagonalization used to cross-check the closed
forms.

Conventions
-----------
* All frequencies are angular (rad/s).
* ``omega_E`` is the exchange frequency with the coordination number
  absorbed, ``omega_par``/``omega_perp`` are the easy-/hard-axis
  anisotropy frequencies, ``omega_H = gyro * B0`` the Zeeman frequency.
* The closed-form Bogoliubov and magneto-optic coefficients require
  ``omega_perp == 0``; the general case is reachable only through
  :func:`diagonalize_numeric`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormValidityError, SpinFlopError, UnstableHamiltonianError

__all__ = [
    "MaterialParams",
    "QuadraticHamiltonian",
    "DiagonalizationResult",
    "resonance_frequencies",
    "bogoliubov_uv",
    "kappa_coefficients",
    "transverse_magnetization_factor",
    "quadratic_hamiltonian",
    "diagonalize_numeric",
]

# Preconditions for the easy-axis closed forms are checked against this
# ratio; beyond it the leading-order magneto-optic expansion degrades.
_SOFT_ANISOTROPY_RATIO = 0.1


@dataclass(frozen=True)
class MaterialParams:
    """Static material parameters of the antiferromagnet.

    Parameters
    ----------
    omega_E : float
        Exchange frequency (rad/s), > 0.
    omega_par : float
        Easy-axis anisotropy frequency (rad/s), > 0.
    omega_perp : float
        Hard-axis anisotropy frequency (rad/s), >= 0.  Must be zero for
        every closed-form operation in this module.
    gyro : float
        Gyromagnetic ratio magnitude (rad/s per tesla), > 0.
    spin_density : float
        Spins per unit volume (1/m^3), > 0.
    asymmetry_K : float
        Dimensionless magneto-optic asymmetry between the sublattices.
    theta_F : float
        Faraday rotation per sublattice per unit length (rad/m), >= 0.
    eps_r : float
        Relative permittivity, >= 1.
    """

    omega_E: float
    omega_par: float
    omega_perp: float
    gyro: float
    spin_density: float
    asymmetry_K: float
    theta_F: float
    eps_r: float

    def __post_init__(self):
        if self.omega_E <= 0:
            raise ValueError("omega_E must be positive")
        if self.omega_par <= 0:
            raise ValueError("omega_par must be positive")
        if self.omega_perp < 0:
            raise ValueError("omega_perp must be non-negative")
        if self.gyro <= 0:
            raise ValueError("gyro must be positive")
        if self.spin_density <= 0:
            raise ValueError("spin_density must be positive")
        if self.theta_F < 0:
            raise ValueError("theta_F must be non-negative")
        if self.eps_r < 1:
            raise ValueError("eps_r must be >= 1")

    @property
    def zero_field_gap(self) -> float:
        """sqrt(2 * omega_E * omega_par), the degenerate gap at B0 = 0."""
        return math.sqrt(2.0 * self.omega_E * self.omega_par)

    def require_easy_axis(self, operation: str) -> None:
        if self.omega_perp != 0.0:
            raise ClosedFormValidityError(
                f"{operation} requires omega_perp == 0 (easy-axis material); "
                f"got omega_perp = {self.omega_perp:g} rad/s"
            )


def resonance_frequencies(m: MaterialParams, B0: float) -> tuple[float, float]:
    """Resonance frequencies (omega_alpha, omega_beta) of the uniform modes.

    The two branches satisfy

        omega_{a,b}^2 = omega_E (2 omega_par + omega_perp) + omega_H^2
                        +- sqrt(omega_E^2 omega_perp^2
                                + 4 omega_H^2 omega_E (2 omega_par + omega_perp))

    with omega_H = gyro * B0.  For a pure easy-axis material this reduces
    algebraically to omega_{a,b} = omega_0 +- omega_H with
    omega_0 = sqrt(2 omega_E omega_par); that exact form is used so the
    Zeeman splitting omega_alpha - omega_beta = 2 omega_H carries no
    cancellation error.

    Raises
    ------
    SpinFlopError
        If the lower branch would be imaginary (field at or beyond the
        spin-flop instability of the collinear state).
    """
    if B0 < 0:
        raise ValueError("B0 must be non-negative")
    omega_H = m.gyro * B0

    if m.omega_perp == 0.0:
        omega_0 = m.zero_field_gap
        lower = omega_0 - omega_H
        if lower < 0.0:
            raise SpinFlopError(
                f"field {B0:g} T exceeds the spin-flop threshold "
                f"{omega_0 / m.gyro:g} T; collinear ground state unstable"
            )
        return omega_0 + omega_H, lower

    mean_sq = m.omega_E * (2.0 * m.omega_par + m.omega_perp) + omega_H**2
    inner = (m.omega_E * m.omega_perp) ** 2 + 4.0 * omega_H**2 * m.omega_E * (
        2.0 * m.omega_par + m.omega_perp
    )
    split = math.sqrt(inner)
    lower_sq = mean_sq - split
    if lower_sq < 0.0:
        # tolerate pure rounding at the exact spin-flop point
        if lower_sq > -1e-10 * mean_sq:
            lower_sq = 0.0
        else:
            raise SpinFlopError(
                f"field {B0:g} T is past the spin-flop instability "
                "(lower branch imaginary)"
            )
    return math.sqrt(mean_sq + split), math.sqrt(lower_sq)


def bogoliubov_uv(m: MaterialParams) -> tuple[float, float]:
    """Bogoliubov coefficients (U, V) of the easy-axis two-mode transformation.

        U = sqrt((X + 1) / 2),   V = -sqrt((X - 1) / 2),
        X = (omega_E + omega_par) / sqrt(omega_par (2 omega_E + omega_par))

    U > 0, V < 0 and U^2 - V^2 = 1.  In the limit omega_par << omega_E,
    U + V approaches (omega_par / (2 omega_E))^(1/4).
    """
    m.require_easy_axis("bogoliubov_uv")
    x = (m.omega_E + m.omega_par) / math.sqrt(m.omega_par * (2.0 * m.omega_E + m.omega_par))
    u = math.sqrt((x + 1.0) / 2.0)
    v = -math.sqrt((x - 1.0) / 2.0)
    return u, v


def kappa_coefficients(m: MaterialParams) -> tuple[float, float]:
    """Magneto-optic mode coefficients (kappa_alpha, kappa_beta).

        kappa_{a,b} = (omega_par / 2 omega_E)^(1/4)
                      +- K (2 omega_E / omega_par)^(1/4)

    Independent of the static field.  Valid for easy-axis materials with
    omega_par << omega_E; a warning is emitted past ratio 0.1.
    """
    m.require_easy_axis("kappa_coefficients")
    ratio = m.omega_par / m.omega_E
    if ratio > _SOFT_ANISOTROPY_RATIO:
        warnings.warn(
            f"omega_par/omega_E = {ratio:.3g} exceeds {_SOFT_ANISOTROPY_RATIO}; "
            "the leading-order magneto-optic coefficients are unreliable",
            stacklevel=2,
        )
    t = (m.omega_par / (2.0 * m.omega_E)) ** 0.25
    shift = m.asymmetry_K / t
    return t + shift, t - shift


def transverse_magnetization_factor(m: MaterialParams, total_spins: float) -> float:
    """Amplitude of the transverse magnetization per magnon.

    Returns (U + V) / sqrt(2 * total_spins), the prefactor of the
    transverse magnetization components in terms of the mode operators.
    Scales as 1/sqrt(total_spins) at fixed material.
    """
    if total_spins <= 0:
        raise ValueError("total_spins must be positive")
    u, v = bogoliubov_uv(m)
    return (u + v) / math.sqrt(2.0 * total_spins)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic coefficient matrix of the k = 0 magnon bilinear form.

    ``matrix`` is the 4x4 Hermitian coefficient matrix in the basis
    (a, b, a^dag, b^dag); ``metric`` is the bosonic signature
    diag(+1, +1, -1, -1).  Eigenfrequencies are real for stable
    parameters (positive-definite matrix).
    """

    matrix: np.ndarray
    metric: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (4, 4):
            raise ValueError("coefficient matrix must be 4x4")
        if not np.allclose(self.matrix, self.matrix.conj().T, rtol=0, atol=1e-12):
            raise ValueError("coefficient matrix must be Hermitian")
        self.matrix.flags.writeable = False
        self.metric.flags.writeable = False


def quadratic_hamiltonian(m: MaterialParams, B0: float) -> QuadraticHamiltonian:
    """Assemble the k = 0 quadratic magnon Hamiltonian for the material.

    Uses the symmetrized sublattice-boson reduction

        H = (A - omega_H) a^dag a + (A + omega_H) b^dag b
            + C (a b + a^dag b^dag) + (F/2)(a^2 + b^2 + h.c.)

    with A = omega_E + omega_par/2 + omega_perp/4,
    C = omega_E - omega_par/2 - omega_perp/4 and F = omega_perp/2.  The
    diagonal and pair coefficients are split so that the exact spectrum
    of the easy-axis block is sqrt(2 omega_E omega_par) +- omega_H,
    identical to :func:`resonance_frequencies`.
    """
    if B0 < 0:
        raise ValueError("B0 must be non-negative")
    omega_H = m.gyro * B0
    a_diag = m.omega_E + m.omega_par / 2.0 + m.omega_perp / 4.0
    c_pair = m.omega_E - m.omega_par / 2.0 - m.omega_perp / 4.0
    f_pair = m.omega_perp / 2.0
    h = np.array(
        [
            [a_diag - omega_H, 0.0, f_pair, c_pair],
            [0.0, a_diag + omega_H, c_pair, f_pair],
            [f_pair, c_pair, a_diag - omega_H, 0.0],
            [c_pair, f_pair, 0.0, a_diag + omega_H],
        ],
        dtype=complex,
    )
    metric = np.diag([1.0, 1.0, -1.0, -1.0])
    return QuadraticHamiltonian(matrix=h, metric=metric)


@dataclass(frozen=True)
class DiagonalizationResult:
    """Positive-frequency spectrum and para-unitary transformation.

    ``transform`` T satisfies T^dag Sigma T = Sigma (bosonic metric
    preserved) and T^dag H T diagonal; column j holds the coefficients of
    normal mode j, normalized to sum(|u|^2) - sum(|v|^2) = +1 for the
    annihilation-type columns.
    """

    omega_alpha: float
    omega_beta: float
    transform: np.ndarray


def diagonalize_numeric(h: QuadraticHamiltonian) -> DiagonalizationResult:
    """Para-unitary eigendecomposition of the bosonic coefficient matrix.

    Implements the Cholesky-based construction: with H = K^dag K,
    diagonalize K Sigma K^dag and rescale the eigenvectors back through
    K to obtain a metric-preserving transformation.

    Raises
    ------
    UnstableHamiltonianError
        If the coefficient matrix is not positive definite (magnetic
        ground state unstable), as opposed to a solver failure.
    """
    sigma = h.metric
    try:
        k = np.linalg.cholesky(h.matrix).conj().T  # upper triangular, H = K^dag K
    except np.linalg.LinAlgError as exc:
        raise UnstableHamiltonianError(
            "coefficient matrix is not positive definite; the assumed "
            "collinear ground state is unstable at these parameters"
        ) from exc
    core = k @ sigma @ k.conj().T
    eigvals, eigvecs = np.linalg.eigh(core)
    # positive pair first, each sorted descending
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    transform = np.linalg.solve(k, eigvecs @ np.diag(np.sqrt(np.abs(eigvals))))
    omega_alpha, omega_beta = float(eigvals[0]), float(eigvals[1])
    return DiagonalizationResult(
        omega_alpha=omega_alpha, omega_beta=omega_beta, transform=transform
    )
