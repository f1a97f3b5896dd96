"""Numerical laboratory for nonsingular Poisson suspensions over atomic bases.

Five layers:

* ``dist``      distributional kernels (Poisson, Skellam, Hellinger)
* ``intensity`` intensity profiles and their symbolic condition system
* ``criteria``  analytic conservativity / dissipativity certificates
* ``simulate``  reproducible Monte Carlo experiments over configurations
* ``cli``       the ``suspension-lab`` command-line surface
"""

__version__ = "0.1.0"

import os as _os

# Idle OpenBLAS workers sleep, not spin (read only if numpy loads after this); bodies unchanged, a preset value wins.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .dist import (
    LOG_ZERO,
    ParameterDomainError,
    SkellamLaw,
    hellinger_sq_poisson,
    poisson_log_pmf,
    skellam_cf,
    skellam_moments,
    skellam_pmf,
    skellam_pmf_row,
    skellam_tail,
)
from .intensity import (
    ExplicitFamily,
    IntensityProfile,
    PowerFamily,
    ProfileError,
    StepFamily,
    Trivalent,
    ZeroFamily,
    check_condition,
    condition_verdict,
    eval_intensity,
    limit_gap,
    limit_sets,
)
from .criteria import (
    ClassificationReport,
    GapNotZeroError,
    MonotonicityError,
    PreconditionError,
    Verdict,
    bifurcation_bracket,
    classify,
    conservativity_certificate,
    continuous_base_bound,
    dissipativity_series,
    hellinger_growth,
    nonsingularity_deficit,
    rn_square_integral,
)
from .sampling import RNGSpec
from .simulate import (
    ConfigurationWindow,
    ExperimentSummary,
    WindowCoverageError,
    clt_experiment,
    hopf_diagnostic,
    increment_tail_decay,
    log_rn_derivative,
    sample_configuration,
    scan_intensity,
    stopping_time_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
