"""Quantum optics of a balanced gain/loss bilayer.

Subpackages by role:

- media: Lorentz permittivities, refractive-index branch, balance solver, presets
- scattering: flux-normalized transfer matrices, S-matrix, eigenvalue phases
- noise: thermal occupation, commutator blocks, output noise flux, sum rule
- effective: Bloch index of the fine-period stack, slab closed forms
- observables: homodyne variance and Mandel Q for squeezed coherent input
- grid: one batched evaluation of a whole sweep grid, equal to the scalar
  functions above bit for bit, and the table schema
- sweep_cli: grids, threshold location (ITP), theory comparison, CLI entry point
"""

import types as _types

__version__ = "0.1.0"   # first, so that the modules imported below can read it

from .effective import (
    BranchAmbiguity,
    LasingPole,
    bloch_index,
    effective_amplitudes,
    effective_noise,
    round_trip,
)
from .media import (
    C_VACUUM,
    DEFAULT_LAYER_THICKNESS,
    HBAR,
    K_BOLTZMANN,
    NM,
    PRESET_IDS,
    TRAD,
    Bilayer,
    LorentzMedium,
    permittivity,
    preset,
    preset_default_omega,
    pt_balanced_gain,
    pt_delta_epsilon,
    pt_frequency,
    refractive_index,
    set2_gain_alpha,
    set2_operating_frequency,
    verify_pt,
)
from .noise import (
    SumRuleViolation,
    layer_commutator,
    layer_terms,
    noise_flux,
    sum_rule_residual,
    thermal_occupation,
    unitarity_deficit,
)
from .observables import (
    DegenerateDenominator,
    SqueezedCoherentInput,
    homodyne_variance,
    input_reference,
    mandel_q,
)
from .scattering import (
    MODE_FULL,
    MODE_PAPER,
    InconsistentEigenvalues,
    ScatteringAmplitudes,
    SingularTransfer,
    TransferChain,
    canonical_mode,
    classify_phase,
    conservation_residuals,
    eigenvalues,
    scattering_from_transfer,
    transfer_chain,
)
from .sweep_cli import (
    ConfigError,
    EvaluationFailed,
    NoSignChange,
    ResultTable,
    SweepSpec,
    ThresholdQuery,
    compare_theories,
    locate_threshold,
    run_sweep,
)

# the public API: every name imported above except the submodules, and the version
__all__ = ["__version__"] + [name for name, value in list(globals().items())
                             if not name.startswith("_")
                             and not isinstance(value, _types.ModuleType)]
