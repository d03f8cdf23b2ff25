"""Numerical laboratory for the entropy growth of orbit-averaged semimetrics.

Sample points from the invariant measure of a measure-preserving system,
average a semimetric along orbits, estimate the eps-entropy of the resulting
metric measure space, and classify how those entropies grow with the
averaging length.  Bounded growth at every eps is reported as evidence of a
purely discrete spectrum.
"""

from .dynsys import (
    GOLDEN_FRAC,
    SQRT2_FRAC,
    Point,
    PointSample,
    SystemSpec,
    anzai_skew,
    apply,
    bernoulli_shift,
    circle_rotation,
    identity_system,
    sample_points,
    torus_translation,
)
from .entropy import (
    AtomicMeasure,
    EpsEntropyEstimate,
    atomic_entropy,
    entropy_estimate,
    eps_entropy_cover,
    eps_entropy_kantorovich,
    kantorovich_distance,
)
from .errors import (
    HorizonError,
    InfeasibleError,
    MetricTypeError,
    OrbentError,
    ParameterError,
    SizeError,
)
from .semimetric import (
    AxiomReport,
    DistanceMatrix,
    Partition,
    Semimetric,
    average_metric,
    block_semimetric,
    check_axioms,
    closed_form,
    cutoff,
    distance_matrix,
    dyadic_interval_partition,
    empirical_l1,
    first_symbols_partition,
    make_standard,
    mix,
    mnorm_bounds,
    one_block_partition,
    pull_back,
)
from .admit import (
    AdmissibilityReport,
    BlockAverageMatrix,
    TracePoint,
    admissibility_report,
    ball_mass_test,
    block_average_matrix,
    random_matrix_test,
    trace_test,
)
from .scaling import (
    GrowthClass,
    LimitCheck,
    ProfileRow,
    ScalingProfile,
    SpectralVerdict,
    classify_growth,
    discreteness_verdict,
    limit_metric_check,
    scaling_profile,
)

__version__ = "0.1.0"
