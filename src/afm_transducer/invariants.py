"""Runtime invariant suite behind the `validate` command.

Each check returns a named pass/fail with the measured figure so a
failing run pinpoints the broken identity.  The suite covers the
closed-form identities, the numeric diagonalization oracle, and
scattering reciprocity and passivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    eta_with_cavity_full,
    eta_without_cavity_full,
)
from .errors import SpinFlopError
from .magnon import (
    bogoliubov_uv,
    diagonalize_numeric,
    kappa_coefficients,
    quadratic_hamiltonian,
    resonance_frequencies,
)
from .presets import Preset, assemble
from .scattering import Configuration, scatter

__all__ = ["CheckResult", "run_invariant_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def describe(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"{state}  {self.name}: measured {self.measured:.3e} (tol {self.tolerance:.0e})"


def _check(name: str, measured: float, tolerance: float) -> CheckResult:
    return CheckResult(name=name, passed=bool(measured <= tolerance),
                       measured=float(measured), tolerance=tolerance)


def run_invariant_suite(preset: Preset, b0: float = 0.0) -> list[CheckResult]:
    """Run every applicable invariant on the resolved bundle."""
    checks: list[CheckResult] = []
    material = preset.material

    if material.omega_perp == 0.0:
        u, v = bogoliubov_uv(material)
        checks.append(_check("bogoliubov normalization |U^2-V^2-1|",
                             abs(u * u - v * v - 1.0), 1e-12))

        ka, kb = kappa_coefficients(material)
        t = (material.omega_par / (2.0 * material.omega_E)) ** 0.25
        sum_dev = abs((ka + kb) - 2.0 * t) / (2.0 * t)
        diff_target = 2.0 * material.asymmetry_K / t
        diff_dev = (
            abs((ka - kb) - diff_target) / abs(diff_target)
            if diff_target != 0.0
            else abs(ka - kb)
        )
        checks.append(_check("magneto-optic sum identity", sum_dev, 1e-12))
        checks.append(_check("magneto-optic difference identity", diff_dev, 1e-12))

        # Zeeman splitting at a few static fields below spin-flop
        flop = material.zero_field_gap / material.gyro
        worst = 0.0
        for frac in (0.1, 0.5, 0.9):
            field_t = frac * flop
            wa, wb = resonance_frequencies(material, field_t)
            expected = 2.0 * material.gyro * field_t
            worst = max(worst, abs((wa - wb) - expected) / expected)
        checks.append(_check("Zeeman splitting 2*gyro*B0", worst, 1e-12))

        worst = 0.0
        for frac in (0.0, 0.3, 0.7):
            field_t = frac * flop
            wa, wb = resonance_frequencies(material, field_t)
            result = diagonalize_numeric(quadratic_hamiltonian(material, field_t))
            worst = max(
                worst,
                abs(result.omega_alpha - wa) / wa,
                abs(result.omega_beta - wb) / max(wb, 1e-30),
            )
        checks.append(_check("numeric diagonalization vs closed form", worst, 1e-9))

        try:
            resonance_frequencies(material, 1.5 * flop)
            checks.append(CheckResult("spin-flop rejection", False, 1.0, 0.0))
        except SpinFlopError:
            checks.append(CheckResult("spin-flop rejection", True, 0.0, 0.0))

    assembled = assemble(preset)
    system = assembled.system
    probe = assembled.probe

    offsets = np.linspace(-2.0, 2.0, 5) * system.kappa_e
    worst_sym = 0.0
    worst_passive = 0.0
    worst_oracle = 0.0
    for offset in offsets:
        omega = probe + offset
        res = scatter(system, omega)
        worst_sym = max(worst_sym, float(np.max(np.abs(res.s - res.s.T))))
        worst_passive = max(worst_passive, res.eta - 1.0, res.reflection - 1.0, 0.0)
        if system.configuration is Configuration.WITH_OPTICAL_CAVITY:
            closed = eta_with_cavity_full(system, omega)
        else:
            closed = eta_without_cavity_full(system, omega)
        if closed > 0:
            worst_oracle = max(worst_oracle, abs(res.eta - closed) / closed)
    checks.append(_check("scattering reciprocity max|S - S^T|", worst_sym, 1e-12))
    checks.append(_check("passivity of eta and reflection", worst_passive, 1e-12))
    checks.append(_check("matrix solver vs closed form", worst_oracle, 1e-9))

    if b0 > 0.0 and material.omega_perp == 0.0:
        # confirm that the requested static field is below spin-flop
        try:
            resonance_frequencies(material, b0)
            checks.append(CheckResult("static field below spin-flop", True, 0.0, 0.0))
        except SpinFlopError:
            checks.append(CheckResult("static field below spin-flop", False, 1.0, 0.0))

    return checks
