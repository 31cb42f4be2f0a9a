"""starifs: invariant idempotent measures of iterated function systems
under continuous triangular norms.

Build a finite grid, a t-norm, and a weighted system of contractions;
iterate the system operator on density fields until the hypograph
residual between consecutive iterates (a heuristic) or the paper's
bound c^n diam(X) between two continuum orbits falls below a tolerance.
Neither number bounds the distance to the grid fixed point.
"""

from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    NotAContractionError,
    PreconditionError,
    ResourceBudgetError,
    StarIfsError,
    ValidationError,
    WeightError,
)
from .ifs import (
    ContractionMap,
    IFSSystem,
    SolveReport,
    error_bound,
    psi,
    residual,
    solve,
    validate,
)
from .measures import (
    SaturatedSet,
    StarMeasure,
    SubDensity,
    evaluate,
    from_saturated,
    hypograph_hausdorff,
    max_union,
    pushforward,
    scale,
    to_saturated,
    weakstar_distance,
)
from .oracle import (
    LemmaFuzzReport,
    Word,
    attractor_support,
    enumerate_words,
    hutchinson_fixed_set,
    lemma_prod_fuzzer,
    word_expansion,
)
from .spaces import (
    FiniteMetricSpace,
    LevelGrid,
    grid_1d,
    grid_2d,
    hausdorff,
)
from .tnorms import FAMILIES, TNorm, axiom_report, parse_tnorm

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractionMap",
    "CoverageError",
    "DomainError",
    "FAMILIES",
    "FiniteMetricSpace",
    "IFSSystem",
    "LemmaFuzzReport",
    "LevelGrid",
    "NotAContractionError",
    "PreconditionError",
    "ResourceBudgetError",
    "SaturatedSet",
    "SolveReport",
    "StarIfsError",
    "StarMeasure",
    "SubDensity",
    "TNorm",
    "ValidationError",
    "WeightError",
    "Word",
    "attractor_support",
    "axiom_report",
    "enumerate_words",
    "error_bound",
    "evaluate",
    "from_saturated",
    "grid_1d",
    "grid_2d",
    "hausdorff",
    "hutchinson_fixed_set",
    "hypograph_hausdorff",
    "lemma_prod_fuzzer",
    "max_union",
    "psi",
    "pushforward",
    "residual",
    "scale",
    "solve",
    "to_saturated",
    "validate",
    "weakstar_distance",
    "word_expansion",
]
