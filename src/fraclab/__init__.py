"""fraclab: a numerical laboratory for fractional phase-transition energies
with oscillating coefficients.

Discretizes the double-well + fractional-seminorm functionals, estimates
optimal-profile transition energies by constrained minimization, and runs the
desk-scale experiments (scaling identities, regime sweeps, recovery
constructions, decay probes) behind the ``fraclab`` command line tool.
"""

from .energy import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    KernelSpec,
    eval_F,
)
from .experiments import (
    SweepPoint,
    build_recovery,
    cross_term_probe,
    delta_rule,
    fit_loglog_slope,
    flatten_tail,
    jump_half_separation,
    regime_sweep,
    tail_decay_probe,
)
from .grid import (
    BVTarget,
    GridProfile,
    UniformGrid,
    difference_matrix,
    kth_difference,
    make_bv_target,
    make_grid,
    resample_scaled,
    sample_bv_target,
)
from .optimize import (
    ClampSpec,
    MinimizeOptions,
    MinimizeResult,
    NumericalFailure,
    check_gradient,
    minimize,
)
from .profiles import (
    TransitionProblem,
    lambda_continuity_probe,
    predicted_limit,
    scaling_exponent,
    transition_energy,
    transition_energy_curve,
)

__version__ = "0.1.0"
