"""Bridge-sampling toolkit for birth-death processes.

Evaluates transition probabilities by uniform sampling over the decomposition
of bridge paths into sorted jump times and taboo-bounded integer skeletons,
and builds likelihood inference for incompletely observed processes on top,
including a sequential filter for epidemics observed only through susceptible
counts.
"""

from .counting import (
    BridgeSpec,
    bridge_count,
    log_bridge_count,
    log_simplex_density,
)
from .errors import (
    BridgeDomainError,
    CapacityError,
    DataFormatError,
    ModelDomainError,
    UnsupportedCaseError,
    ZeroMeasureSpace,
)
from .filters import (
    BootstrapResult,
    FilterState,
    Observations,
    ScanResult,
    bootstrap_filter,
    failure_domain_scan,
    igbs_filter_loglik,
    igbs_filter_step,
    run_filter,
)
from .inference import (
    FitResult,
    GridSpec,
    SearchConfig,
    SurfaceResult,
    basic_reproduction_number,
    fit_mle,
    loglik_surface,
)
from .likelihood import (
    BSet,
    MCEstimate,
    batch_path_loglik,
    choose_bset,
    estimate_pij,
    estimate_pij_b,
    spec_for,
)
from .models import (
    BirthDeathModel,
    LBDIParams,
    SIRParams,
    SIRReducedModel,
    SISParams,
    lbdi_model,
    sir_as_bd,
    sis_model,
)
from .reference import (
    SimPath,
    generator_transition,
    generator_transition_fixed_ups,
    gillespie_simulate,
    lbdi_transition,
    straight_estimate,
)
from .sampler import RngStream, sample_bridges

__version__ = "0.1.0"
