"""Zero-sum linear-quadratic mean-field type games.

Exact Nash equilibria via the stabilizing solutions of Riccati-type
equations, closed-form policy evaluation and gradients, mean-field and
finite-population simulators, sample-based gradient estimation, and
one alternating-gradient / gradient-descent-ascent learning loop.
"""

from .errors import LqmfgError
from .estimator import EstimatorConfig, estimate_gradient
from .model import (
    DerivedParams,
    Distribution,
    ModelParams,
    NoiseSpec,
    PolicyPair,
    in_stabilizing_set,
    validate,
)
from .optim import (
    OptimizerConfig,
    RunLog,
    relative_error,
    run,
)
from .riccati import (
    RiccatiSolution,
    nash_policy,
    solve_riccati,
)
from .simulate import (
    MkvTrajectory,
    derive_seed,
    mkv_utility_batch,
    nagent_utility_batch,
    simulate_mkv,
)
from .value import (
    GradientPair,
    ValueSolution,
    discounted_second_moment,
    exact_gradient,
    exact_utility,
    solve_dev_value,
    solve_mean_value,
)

__version__ = "0.1.0"
