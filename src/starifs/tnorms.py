"""Continuous triangular norms on the unit interval.

A t-norm is a continuous, associative, commutative, monotone binary
operation on [0, 1] with unit 1.  It is the multiplication the rest of
the package is built on: measures are evaluated with it, word weights
are folded with it, and the scalar action on hypographs applies it
level-wise.

Only closed-form continuous families are provided; tabulated or
user-supplied operations are rejected so the axiom suite stays exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

FAMILIES = ("minimum", "product", "lukasiewicz", "hamacher")

# accepted spellings in configs and CLI flags
_ALIASES = {"min": "minimum", "luk": "lukasiewicz"}

_HAMACHER_RE = re.compile(r"^hamacher\(\s*([^)]+)\s*\)$")


def _check_unit_range(name, value):
    arr = np.asarray(value, dtype=float)
    if arr.size and not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm from a built-in family.

    ``parameter`` is read only by the Hamacher family (p >= 0); the
    other families ignore it.  Hamacher with p = 0 is extended by
    apply(0, 0) = 0, which is its continuous limit.
    """

    family: str
    parameter: float = 1.0

    def __post_init__(self):
        family = _ALIASES.get(self.family, self.family)
        if family not in FAMILIES:
            raise DomainError(f"unknown t-norm family {self.family!r}")
        object.__setattr__(self, "family", family)
        p = float(self.parameter)
        if not np.isfinite(p) or p < 0.0:
            raise DomainError("hamacher parameter must be finite and >= 0")
        object.__setattr__(self, "parameter", p)

    def apply(self, a, b):
        """Evaluate the t-norm; accepts scalars or broadcastable arrays.

        Both operands are checked to lie in [0, 1].
        """
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        out = self._apply(_check_unit_range("a", a), _check_unit_range("b", b))
        return float(out) if scalar else out

    def _apply(self, a, b):
        """The family arithmetic on float operands already known to lie in [0, 1]."""
        if self.family == "minimum":
            return np.minimum(a, b)
        if self.family == "product":
            return a * b
        if self.family == "lukasiewicz":
            return np.maximum(0.0, (a + b) - 1.0)
        p = self.parameter
        denom = p + (1.0 - p) * (a + b - a * b)
        safe = np.where(denom > 0.0, denom, 1.0)
        # clip: the denominator rounding can push the quotient one ulp past 1
        return np.clip(np.where(denom > 0.0, a * b / safe, 0.0), 0.0, 1.0)

    def fold(self, weights):
        """Left-fold apply over a sequence; the empty fold is the unit 1."""
        acc = 1.0
        for w in weights:
            acc = self.apply(acc, float(w))
        return acc

    def lipschitz_bound(self):
        """A constant L with |T(a,b) - T(a',b')| <= L(|a-a'| + |b-b'|).

        The three fixed families are 1-Lipschitz; Hamacher exceeds 1
        only for p > 2, where the partial derivatives peak at
        p^2 / (4(p-1)).
        """
        if self.family == "hamacher" and self.parameter > 2.0:
            p = self.parameter
            return p * p / (4.0 * (p - 1.0))
        return 1.0

    def config_name(self):
        if self.family == "hamacher":
            return f"hamacher({self.parameter:g})"
        return "min" if self.family == "minimum" else self.family


def parse_tnorm(name, parameter=None):
    """Build a TNorm from a config name: "min", "product", "lukasiewicz",
    or "hamacher(p)" (equivalently family "hamacher" plus a parameter)."""
    name = name.strip()
    m = _HAMACHER_RE.match(name)
    if m:
        try:
            return TNorm("hamacher", float(m.group(1)))
        except ValueError as exc:
            raise DomainError(f"bad hamacher parameter in {name!r}") from exc
    if name == "hamacher":
        if parameter is None:
            raise DomainError("hamacher requires a parameter")
        return TNorm("hamacher", parameter)
    return TNorm(name)


def axiom_report(tnorm, triples=1000, rng_seed=0, tol=1e-12):
    """Sample the t-norm axioms on random triples; returns a report dict.

    Checks unit, commutativity, associativity and monotonicity, plus the
    sampled Lipschitz continuity bound.  Deviations are absolute.
    """
    rng = np.random.default_rng(rng_seed)
    a, b, c = rng.uniform(0.0, 1.0, size=(3, triples))
    t = tnorm.apply

    dev_unit = np.max(np.abs(t(np.ones_like(a), a) - a))
    dev_comm = np.max(np.abs(t(a, b) - t(b, a)))
    dev_assoc = np.max(np.abs(t(a, t(b, c)) - t(t(a, b), c)))

    a2 = np.clip(a + rng.uniform(0.0, 1.0, triples) * (1.0 - a), 0.0, 1.0)
    b2 = np.clip(b + rng.uniform(0.0, 1.0, triples) * (1.0 - b), 0.0, 1.0)
    dev_mono = float(np.max(t(a, b) - t(a2, b2)))

    L = tnorm.lipschitz_bound()
    lhs = np.abs(t(a, b) - t(a2, b2))
    rhs = L * (np.abs(a - a2) + np.abs(b - b2))
    dev_cont = float(np.max(lhs - rhs))

    bound_ok = bool(np.all(t(a, b) <= np.minimum(a, b) + tol)) and bool(
        np.all(t(a, b) >= -tol)
    )
    deviations = {
        "unit": float(dev_unit),
        "commutativity": float(dev_comm),
        "associativity": float(dev_assoc),
        "monotonicity": dev_mono,
        "continuity": dev_cont,
    }
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
