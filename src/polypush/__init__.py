"""polypush: learning polynomial transformations of Gaussian seeds by moments.

Library for recovering quadratic (tensor-ring) and low-rank odd-order
networks from moment tables, with gauge-aware evaluation, smoothed-instance
generation, and a lower-bound lab producing statistically-close /
parameter-distant pairs.  Each recovery runs one path: it fits the moments
locally and gauge-fixes the fit once.  The ``sos`` backend adds one
certificate step: it returns the ``local`` network once that network is
certified feasible, at that one point, for the paper's moment program, whose
constraints are evaluated there in closed form; that is weaker than the
paper's guarantee, which rests on the pseudo-expectation being unique.  The
program encoders of ``relaxation`` are kept as the tests' oracle of that
closed form and for the benchmark's cold solve.

Importing polypush loads neither scipy nor mpmath: each module is imported
by the first call that needs it.  Only the r >= 3 gauge search
(``gauge_distance``'s Nelder-Mead refine) needs scipy, and the lower-bound
lab needs both.  The relaxation solver uses numpy alone, the local fits the
in-repo Levenberg-Marquardt of ``_lm``, and the r <= 2 gauge alignment is
closed-form, so the CLI commands ``generate``, ``sample``, ``moments``,
``verify``, ``solve_tr``, ``solve_lr`` and ``eval`` never load them on
networks with r <= 2, ``--truth`` included.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegeneracyError,
    PolypushError,
    ResourceError,
    UsageError,
)
from .networks import (
    PolyNetwork,
    SeedDistribution,
    SmoothingParams,
    evaluate,
    network_from_json,
    network_to_json,
    rotate_network,
    sample,
    smooth_componentwise,
    smooth_quadratic,
    w1_upper_bound,
)
from .gauge import AlignmentConfig, gauge_distance
from .moments import (
    PairMomentTable,
    QuadraticMomentTable,
    estimate_pair_moments,
    estimate_quadratic_moments,
    exact_quadratic_moments,
    table_from_json,
    table_to_json,
)
from .tensor_ring import (
    RecoveryReport,
    TRConfig,
    decompose,
    extend_tail,
    find_combo,
    gauge_fix,
    spectral_units,
    verify_assumption_tr,
)
from .lowrank import (
    LRConfig,
    factorize,
    verify_assumption_lr,
)
from .lowerbound import (
    LBInstance,
    MatchedPair,
    build_networks,
    char_gap,
    param_distance_lb,
    search_matched_pair,
)

__all__ = [
    "__version__",
    "PolypushError", "UsageError", "ConvergenceError", "DegeneracyError",
    "ResourceError",
    "PolyNetwork", "SeedDistribution", "SmoothingParams", "evaluate",
    "network_from_json", "network_to_json", "rotate_network", "sample",
    "smooth_componentwise", "smooth_quadratic", "w1_upper_bound",
    "AlignmentConfig", "gauge_distance",
    "PairMomentTable", "QuadraticMomentTable",
    "estimate_pair_moments", "estimate_quadratic_moments",
    "exact_quadratic_moments", "table_from_json", "table_to_json",
    "RecoveryReport", "TRConfig", "decompose", "extend_tail", "find_combo",
    "gauge_fix", "spectral_units", "verify_assumption_tr",
    "LRConfig", "factorize", "verify_assumption_lr",
    "LBInstance", "MatchedPair", "build_networks", "char_gap",
    "param_distance_lb", "search_matched_pair",
]
