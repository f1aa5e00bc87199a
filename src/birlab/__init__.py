"""birlab: a numerical laboratory for birational maps of P^2.

Builds the dynamical objects of pluripotential dynamics at desk scale
(quasi-potentials, dynamical cut-offs, Green functions, particle
approximations of the equilibrium measure) and benchmarks measured decay
of correlations against the proven exponential rates.
"""

__version__ = "0.1.0"

from .errors import (
    AllZero,
    ChartSingular,
    ConfigInvalid,
    DegenerateCloud,
    DimensionMismatch,
    IndeterminacyProximity,
    InsufficientSignal,
    InvalidParam,
    LabError,
    NonConvergence,
    ShiftCalibrationError,
)
from .genericity import GenericityReport, bd_partial_sums, indeterminacy_orbit
from .maps import (
    BirationalPair,
    HomogeneousPolynomial,
    RationalMapRep,
    eval_point,
    fs_pullback_form,
    iterate,
    make_cremona_composed,
    make_henon,
    pullback_density,
    random_unitary,
)
from .measure import (
    WeightedCloud,
    approx_T_plus_wedge_omega,
    approx_mu,
    effective_sample_size,
    invariance_defect,
)
from .mixing import (
    CnSequence,
    CorrelationSeries,
    DecayFit,
    c_sequence,
    correlation_series,
    decay_fit,
    split_lags,
    theoretical_rate,
    two_sided_grid,
)
from .observables import Observable, observable_catalog
from .potential import (
    QuasiPotentialSeries,
    chi_A,
    green_plus_henon,
    smoothstep,
    u1,
    v_n,
    w_n,
)
from .projective import (
    ProjPoint,
    fs_distance,
    normalize,
    sample_fs,
    to_chart,
)
