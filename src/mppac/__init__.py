"""PAC mean-payoff bounds for blackbox/greybox MDPs and CTMDPs by simulation.

The learner never sees the transition matrix: it samples steps through an
oracle, certifies end components statistically, and reports anytime
lower/upper bounds on the maximum expected mean payoff that hold with
probability at least 1 - δ. A whitebox reference solver covers fully known
models for testing and comparison.
"""

from types import ModuleType as _ModuleType

from .graph import (
    MINUS,
    PLUS,
    STAY,
    UNKNOWN,
    ClosedMec,
    MecRecord,
    best_leaving_action,
    find_delta_sure_mecs,
    is_delta_sure_ec,
    mec_decomposition,
)
from .learn_ctmdp import (
    find_mec_mp_bounds_exact,
    on_demand_bvi_ctmdp,
    uniformize,
    update_mec_value_ctmdp,
)
from .learn_mdp import (
    BLACKBOX_UPDATES,
    GREYBOX_UPDATES,
    BoundsReport,
    LearnerConfig,
    PartialModel,
    compute_n_samples,
    looping,
    mec_value_iteration,
    on_demand_bvi,
    simulate_episode,
    simulate_mec,
    update_mec_value,
)
from .model import (
    BLACKBOX,
    CTMDP,
    GREYBOX,
    MDP,
    CapabilityError,
    ExplicitModel,
    ModelError,
    SampleOracle,
    learner_rng,
    load_model,
    oracle_rng,
    parse_model,
)
from .stats import (
    ec_required_samples,
    greybox_miss_probability,
    rate_inconfidence,
    rate_samples,
    split_mp_inconfidence,
    tp_inconfidence,
    tp_width,
)
from .whitebox import (
    exact_bracket,
    exact_mean_payoff,
    exact_mec_gain,
)

__version__ = "0.1.0"

# the public names bound above, without the submodules the imports also bind
__all__ = sorted(
    name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
