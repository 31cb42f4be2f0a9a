"""Continuous triangular norms on the unit interval.

A t-norm is a continuous, associative, commutative, monotone binary
operation on [0, 1] with unit 1, the multiplication the package is built
on.  One formula per family, ``_apply(a, b)``, serves every caller: it
folds weights (word weights, the path sweep's T(e, e) == e test),
applies a weight to density values level-wise (``psi``,
``measures.scale``, the oracle's T(weight, v)), evaluates measures and
meets the axiom suite.  Each family's float form is commutative bit for
bit and never falls as either operand rises by a float, so T(w, .)
commutes with a max over a cell and a word's weight can only fall as it
grows.

Only closed-form continuous families are provided; tabulated or
user-supplied operations are rejected so the axiom suite stays exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spaces import _integer, _splitmix64, _unit_values

FAMILIES = ("minimum", "product", "lukasiewicz", "hamacher")

# accepted spellings in configs and CLI flags
_ALIASES = {"min": "minimum", "luk": "lukasiewicz"}

_HAMACHER_RE = re.compile(r"^hamacher\(\s*([^)]+)\s*\)$")


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm from a built-in family.

    ``parameter`` is read only by the Hamacher family (p >= 0); the
    other families store 1.0 whatever they are given, so two t-norms
    of one such family are equal.  Hamacher with p = 0 is extended by
    apply(0, 0) = 0, which is its continuous limit.
    """

    family: str
    parameter: float = 1.0

    def __post_init__(self):
        family = _ALIASES.get(self.family, self.family)
        if family not in FAMILIES:
            raise DomainError(f"unknown t-norm family {self.family!r}")
        object.__setattr__(self, "family", family)
        p = 1.0
        if family == "hamacher":
            p = float(self.parameter)
            if not np.isfinite(p) or p < 0.0:
                raise DomainError("hamacher parameter must be finite and >= 0")
        object.__setattr__(self, "parameter", p)

    def apply(self, a, b):
        """Evaluate the t-norm; accepts scalars or broadcastable arrays.

        Both operands are checked to lie in [0, 1].
        """
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        out = self._apply(_unit_values(a, "a"), _unit_values(b, "b"))
        return float(out) if scalar else out

    def _apply(self, a, b):
        """The family arithmetic on float operands already known to lie in
        [0, 1], nondecreasing in each operand float by float.

        Hamacher is 1/T - 1 = x + y + p x y in the coordinates
        x = (1 - a)/a (Klement, Mesiar & Pap, *Triangular Norms*, 2000):
        every term is nonnegative, so each rounding keeps the order.  p x
        is formed before its product with y, as x y alone can overflow
        where p = 0; a sum that overflows gives T = 0 where the exact T is
        subnormal, and the NaN of 0 * inf arises only where T = 0 and
        yields to the clamp to min(a, b).  T(1, a) == a exactly.
        """
        if self.family == "minimum":
            return np.minimum(a, b)
        if self.family == "product":
            return a * b
        # in terms of the larger and the smaller operand, so commutative bit
        # for bit
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        if self.family == "lukasiewicz":
            # 1 - hi is exact (Sterbenz) whenever the result can be nonzero
            return np.maximum(0.0, lo - (1.0 - hi))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x, y = (1.0 - hi) / hi, (1.0 - lo) / lo
            out = 1.0 / (1.0 + ((x + y) + (self.parameter * x) * y))
        return np.where(hi == 1.0, lo, np.fmin(out, lo))

    def fold(self, weights):
        """Left-fold apply over a sequence of numbers in [0, 1]; the empty
        fold is the unit 1."""
        weights = _unit_values(list(weights), "weights")
        if weights.ndim != 1:
            raise DomainError("weights must be a sequence of numbers")
        acc = 1.0
        for w in weights:
            acc = float(self._apply(acc, w))
        return acc

    def lipschitz_bound(self):
        """A constant L with |T(a,b) - T(a',b')| <= L(|a-a'| + |b-b'|).

        The three fixed families are 1-Lipschitz; Hamacher exceeds 1
        only for p > 2, where the partial derivatives peak at
        p^2 / (4(p-1)), evaluated in a form that stays finite up to the
        largest float.
        """
        if self.family == "hamacher" and self.parameter > 2.0:
            p = self.parameter
            return (p / 4.0) * (p / (p - 1.0))
        return 1.0

    def config_name(self):
        """The name ``parse_tnorm`` reads back as this t-norm; p by ``repr``, less any ".0"."""
        if self.family == "hamacher":
            return f"hamacher({repr(self.parameter).removesuffix('.0')})"
        return "min" if self.family == "minimum" else self.family


def parse_tnorm(name, parameter=None):
    """Build a TNorm from a config name: "min", "product", "lukasiewicz",
    or "hamacher(p)" (equivalently family "hamacher" plus a parameter)."""
    name = name.strip()
    m = _HAMACHER_RE.match(name)
    if m:
        try:
            parameter = float(m.group(1))
        except ValueError as exc:
            raise DomainError(f"bad hamacher parameter in {name!r}") from exc
        name = "hamacher"
    elif name == "hamacher" and parameter is None:
        raise DomainError("hamacher requires a parameter")
    return TNorm(name, parameter)


def axiom_report(tnorm, triples=1000, rng_seed=0, tol=1e-12):
    """Sample the t-norm axioms on ``triples`` triples; returns a report dict.

    Checks unit, commutativity, associativity and monotonicity, plus the
    sampled Lipschitz continuity bound.  Deviations are absolute.  The
    triples (a, b, c) and the two monotonicity steps are five vectors of
    doubles in [0, 1) from ``spaces._splitmix64`` seeded with ``rng_seed``,
    so the sample is the same on every numpy version.  ``triples`` must be
    an integer >= 1, ``rng_seed`` an integer in [0, 2^64) and ``tol``
    finite and >= 0; anything else raises DomainError naming it.
    """
    triples = _integer(triples, "triples", 1)
    rng_seed = _integer(rng_seed, "rng_seed")
    if rng_seed >= 2**64:
        raise DomainError("rng_seed must be below 2**64")
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise DomainError("tol must be finite and >= 0")
    a, b, c, step_a, step_b = (_splitmix64(rng_seed, (5, triples)) >> np.uint64(11)) * 2.0**-53
    t = tnorm.apply
    a2 = np.clip(a + step_a * (1.0 - a), 0.0, 1.0)
    b2 = np.clip(b + step_b * (1.0 - b), 0.0, 1.0)
    tab, ta2b2 = t(a, b), t(a2, b2)
    # the sampled Lipschitz bound on |T(a, b) - T(a2, b2)|
    rhs = tnorm.lipschitz_bound() * (np.abs(a - a2) + np.abs(b - b2))
    deviations = {
        "unit": float(np.max(np.abs(t(np.ones_like(a), a) - a))),
        "commutativity": float(np.max(np.abs(tab - t(b, a)))),
        "associativity": float(np.max(np.abs(t(a, t(b, c)) - t(tab, c)))),
        "monotonicity": float(np.max(tab - ta2b2)),
        "continuity": float(np.max(np.abs(tab - ta2b2) - rhs)),
    }
    bound_ok = bool(np.all(tab <= np.minimum(a, b) + tol)) and bool(np.all(tab >= -tol))
    passed = bound_ok and all(d <= tol for d in deviations.values())
    return {
        "tnorm": tnorm.config_name(),
        "triples": triples,
        "rngSeed": rng_seed,
        "tolerance": tol,
        "deviations": deviations,
        "boundedByMin": bound_ok,
        "passed": passed,
    }
