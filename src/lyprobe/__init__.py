"""Lee-Yang probe simulator.

Computes the unit-circle partition-function zeros of ferromagnetic Ising
rings and propagates one-axis-twisted probe ensembles through the two
ring-dephasing channels, exposing coherence, concurrence, and spin-squeezing
time series along with the zero/collapse correspondences between them.
"""

from .channels import (
    Channel,
    KrausSet,
    OatParameters,
    TwoQubitXState,
    evolve_channel_I,
    evolve_channel_II,
    kraus_apply,
    kraus_channel_I,
    kraus_channel_II,
    kraus_tensor,
    oat_reduced_state,
)
from .experiments import (
    FitResult,
    ObservableSeries,
    Scenario,
    VanishingDomain,
    coherence_period,
    count_recovery_peaks,
    default_steps,
    detect_coherence_zeros,
    emit_csv,
    fit_cmax_scaling,
    lee_yang_times,
    max_original_concurrence,
    run_scenario,
    series_from_polynomial,
    vanishing_domains,
)
from .ising_bath import (
    DephasingFactor,
    IsingRing,
    LeeYangZeroSet,
    dephasing_factor,
    dephasing_factor_product,
    lee_yang_zeros,
    partition_coefficients,
    partition_coefficients_bruteforce,
    zero_times,
)
from .observables import (
    ConcurrenceResult,
    SqueezingReport,
    coherence,
    concurrence_channel_I,
    concurrence_channel_II,
    concurrence_generic,
    spin_squeezing,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ConcurrenceResult",
    "DephasingFactor",
    "FitResult",
    "IsingRing",
    "KrausSet",
    "LeeYangZeroSet",
    "OatParameters",
    "ObservableSeries",
    "Scenario",
    "SqueezingReport",
    "TwoQubitXState",
    "VanishingDomain",
    "coherence",
    "coherence_period",
    "concurrence_channel_I",
    "concurrence_channel_II",
    "concurrence_generic",
    "count_recovery_peaks",
    "default_steps",
    "dephasing_factor",
    "dephasing_factor_product",
    "detect_coherence_zeros",
    "emit_csv",
    "evolve_channel_I",
    "evolve_channel_II",
    "fit_cmax_scaling",
    "kraus_apply",
    "kraus_channel_I",
    "kraus_channel_II",
    "kraus_tensor",
    "lee_yang_times",
    "lee_yang_zeros",
    "max_original_concurrence",
    "oat_reduced_state",
    "partition_coefficients",
    "partition_coefficients_bruteforce",
    "run_scenario",
    "series_from_polynomial",
    "spin_squeezing",
    "vanishing_domains",
    "zero_times",
    "__version__",
]
