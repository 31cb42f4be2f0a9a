"""starifs: invariant idempotent measures of iterated function systems
under continuous triangular norms.

Build a finite grid, a t-norm, and a weighted system of contractions.
From the full seed, ``solve`` computes the grid fixed point exactly by a
(max, T) path sweep and checks it against the operator bit for bit.
From any other seed it iterates the system operator on density fields
until a step returns its input bit for bit (an exact grid fixed point),
the paper's bound c^n diam(X) between two continuum orbits falls to a
tolerance, or a step budget is spent; that bound says nothing about the
distance from the last iterate to a grid fixed point.
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
    hypograph_hausdorff,
    max_union,
    pushforward,
    scale,
    to_saturated,
)
from .oracle import attractor_support, hutchinson_fixed_set, word_expansion
from .spaces import LevelGrid, grid_1d, grid_2d, hausdorff
from .tnorms import FAMILIES, TNorm, axiom_report, parse_tnorm

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractionMap",
    "CoverageError",
    "DomainError",
    "FAMILIES",
    "IFSSystem",
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
    "attractor_support",
    "axiom_report",
    "error_bound",
    "evaluate",
    "grid_1d",
    "grid_2d",
    "hausdorff",
    "hutchinson_fixed_set",
    "hypograph_hausdorff",
    "max_union",
    "psi",
    "pushforward",
    "residual",
    "scale",
    "solve",
    "to_saturated",
    "validate",
    "word_expansion",
]
