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
    AnzaiSkew,
    BernoulliShift,
    CircleRotation,
    Identity,
    PointSample,
    SystemSpec,
    TorusTranslation,
    sample_points,
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
    ConfigError,
    HorizonError,
    InfeasibleError,
    MetricTypeError,
    OrbentError,
    ParameterError,
    SizeError,
)
from .semimetric import (
    Average,
    Block,
    ClosedForm,
    Cutoff,
    DistanceMatrix,
    DyadicIntervals,
    FirstSymbols,
    Mix,
    OneBlock,
    Partition,
    PullBack,
    Semimetric,
    distance_matrix,
)
from .admit import (
    AdmissibilityReport,
    TracePoint,
    admissibility_report,
    ball_mass_test,
    random_matrix_test,
    trace_from_matrix,
)
from .scaling import (
    GrowthClass,
    ProfileRow,
    ScalingProfile,
    SpectralVerdict,
    classify_growth,
    discreteness_verdict,
    limit_metric_check,
)

__version__ = "0.1.0"
