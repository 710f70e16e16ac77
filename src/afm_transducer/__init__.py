"""Microwave-to-optical transduction modeling with antiferromagnetic magnons.

The package computes the conversion efficiency of a transducer in which
itinerant microwaves couple to the uniform magnon modes of an easy-axis
antiferromagnet and out to itinerant light, either through an optical
cavity or directly.  Two independent routes to the efficiency, an exact
input-output matrix solver and the closed-form expressions, validate
each other throughout the test suite.
"""

from ._version import __version__
from .closed_forms import (
    Cooperativities,
    Susceptibilities,
    cooperativities,
    cooperativity_form_with_cavity,
    cooperativity_form_without_cavity,
    eta_with_cavity_full,
    eta_with_cavity_single,
    eta_without_cavity_full,
    eta_without_cavity_single,
    lock_double_resonance,
    lock_quadruple_resonance,
    lock_triple_resonance,
    susceptibilities,
)
from .couplings import (
    CavityParams,
    CouplingSet,
    DriveParams,
    SampleGeometry,
    calibrated_xi,
    cavity_enhanced_zeta,
    ferromagnet_reference,
    geometry_scaling,
    itinerant_xi,
    microwave_coupling,
    optical_coupling,
    vacuum_coupling_empirical,
    vacuum_coupling_from_cavity_volume,
)
from .errors import (
    ClosedFormValidityError,
    ConfigError,
    SingularMatrixError,
    SpinFlopError,
    UnstableHamiltonianError,
)
from .magnon import (
    DiagonalizationResult,
    MaterialParams,
    QuadraticHamiltonian,
    bogoliubov_uv,
    diagonalize_numeric,
    kappa_coefficients,
    quadratic_hamiltonian,
    resonance_frequencies,
    transverse_magnetization_factor,
)
from .presets import PRESET_NAMES, AssembledSystem, Preset, assemble, get_preset
from .scattering import (
    Configuration,
    DynamicsMatrices,
    ModeSystem,
    ScatteringResult,
    build_dynamics,
    efficiency,
    reflection,
    scatter,
    scattering_matrix,
    solve_complex_linear,
)
from .sweeps import (
    OptimalThickness,
    SweepResult,
    SweepSpec,
    SweepVariable,
    detuning_sweep,
    faraday_sweep,
    find_optimal_thickness,
    heterostructure_projection,
    run_sweep,
    thickness_sweep_with_cavity,
    thickness_sweep_without_cavity,
)
