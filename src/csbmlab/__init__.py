"""Detection laboratory for correlated stochastic block models.

Samplers for the planted, null and truncated graph-pair models; the
tree-counting detection statistic, scored by the exact counting engine by
default, with a brute-force reference and a color-coding estimator; exact
small-instance moment oracles; and a reproducible Monte Carlo harness for
mapping the easy/hard detection transition in the subsampling rate.
"""

from .density import (
    Decomposition,
    DensityParams,
    choose_N,
    decompose_plain,
    decompose_revised,
    is_admissible,
    is_bad,
    is_self_bad,
    phi_log,
)
from .experiments import (
    ExperimentResult,
    SweepConfig,
    run_verification_suite,
    sweep,
)
from .graphs import Graph
from .models import (
    CorrelatedSample,
    ModelParams,
    cycle_intensity,
    event_E_holds,
    sample_correlated,
    sample_null,
    sample_sbm,
    sample_truncated,
)
from .statistics import (
    CenteredMatrix,
    TreeStatResult,
    cycle_count_test,
    f_tree_stat,
    threshold_test,
    w_color_coding,
    w_exact,
)
from .trees import OTTER_ALPHA, TreeShape, enumerate_trees, otter_estimate, tree_count

__all__ = [
    "Graph",
    "TreeShape",
    "enumerate_trees",
    "tree_count",
    "otter_estimate",
    "OTTER_ALPHA",
    "ModelParams",
    "CorrelatedSample",
    "sample_sbm",
    "sample_correlated",
    "sample_null",
    "sample_truncated",
    "cycle_intensity",
    "event_E_holds",
    "DensityParams",
    "phi_log",
    "is_bad",
    "is_self_bad",
    "is_admissible",
    "choose_N",
    "Decomposition",
    "decompose_plain",
    "decompose_revised",
    "CenteredMatrix",
    "f_tree_stat",
    "TreeStatResult",
    "threshold_test",
    "cycle_count_test",
    "w_exact",
    "w_color_coding",
    "SweepConfig",
    "ExperimentResult",
    "sweep",
    "run_verification_suite",
]

__version__ = "0.1.0"
