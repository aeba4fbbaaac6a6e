"""fraclab: a numerical laboratory for fractional phase-transition energies
with oscillating coefficients.

Discretizes the double-well + fractional-seminorm functionals, estimates
optimal-profile transition energies by constrained minimization, and runs the
desk-scale experiments (scaling identities, regime sweeps, recovery
constructions) behind the ``fraclab`` command line tool.
"""

from .energy import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    KernelSpec,
    eval_F,
)
from .experiments import (
    build_recovery,
    delta_rule,
    fit_loglog_slope,
    jump_half_separation,
    regime_sweep,
)
from .grid import (
    BVTarget,
    GridProfile,
    UniformGrid,
    make_bv_target,
    make_grid,
    resample_scaled,
)
from .optimize import (
    MinimizeOptions,
    MinimizeResult,
    NumericalFailure,
    check_gradient,
    minimize,
)
from .profiles import (
    TransitionProblem,
    predicted_limit,
    scaling_exponent,
    transition_energy,
    transition_energy_curve,
)

__version__ = "0.1.0"
