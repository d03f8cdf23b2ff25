"""Numerical laboratory for the entropy growth of orbit-averaged semimetrics.

Sample points from the invariant measure of a measure-preserving system,
average a semimetric along orbits, estimate the eps-entropy of the resulting
metric measure space, and classify how those entropies grow with the
averaging length n.  :mod:`orbent.scaling` reads the growth in bits per
doubling of n, on the rows more than ``CENSOR_MARGIN_BITS`` (0.5) below the
sample ceiling only: a last-three-increment sum of at most
``BOUNDED_TAIL_BITS`` (0.5) with no row at the ceiling is Bounded, three
positive increments summing to at least ``GROWING_TAIL_BITS`` (0.75) are
Growing.  Bounded at every eps is reported as evidence of a purely discrete
spectrum, Growing at some eps as evidence against.
"""

from .dynsys import (
    GOLDEN_FRAC,
    SQRT2_FRAC,
    AnzaiSkew,
    BernoulliShift,
    CircleRotation,
    Identity,
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
