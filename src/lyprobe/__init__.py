"""Lee-Yang probe simulator.

Computes the unit-circle partition-function zeros of ferromagnetic Ising
rings and propagates one-axis-twisted probe ensembles through the two
ring-dephasing channels, exposing coherence, concurrence, and spin-squeezing
time series along with the zero/collapse correspondences between them.
"""

from .channels import (
    Channel,
    ConcurrenceResult,
    OatParameters,
    SqueezingReport,
    TwoQubitXState,
    coherence,
    concurrence_channel_I,
    concurrence_channel_II,
    evolve_channel_I,
    evolve_channel_II,
    oat_reduced_state,
    spin_squeezing,
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
    run_scenario,
    vanishing_domains,
    zero_times,
)
from .ising_bath import (
    DephasingFactor,
    IsingRing,
    LeeYangZeroSet,
    dephasing_factor,
    lee_yang_zeros,
    partition_coefficients,
)
from .verify import (
    KrausSet,
    concurrence_generic,
    kraus_apply,
    kraus_channel_I,
    kraus_channel_II,
    kraus_tensor,
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
    "detect_coherence_zeros",
    "emit_csv",
    "evolve_channel_I",
    "evolve_channel_II",
    "fit_cmax_scaling",
    "kraus_apply",
    "kraus_channel_I",
    "kraus_channel_II",
    "kraus_tensor",
    "lee_yang_zeros",
    "oat_reduced_state",
    "partition_coefficients",
    "run_scenario",
    "spin_squeezing",
    "vanishing_domains",
    "zero_times",
    "__version__",
]
