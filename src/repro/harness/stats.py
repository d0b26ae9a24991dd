"""Statistical machinery for experiment claims.

Every "A beats B" statement an experiment makes should survive trace
noise. This module provides the two tools the suite uses:

* :func:`bootstrap_ci` — percentile bootstrap confidence interval of a
  mean over per-trace metric values;
* :func:`paired_permutation_test` — sign-flip permutation test on
  paired per-trace differences (the traces are paired across schedulers
  by construction, so the paired test is the right one).

Both are exact-seeded (explicit ``Generator``) and vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["MeanCI", "bootstrap_ci", "paired_permutation_test", "summarize"]


@dataclass(frozen=True)
class MeanCI:
    """A point estimate with a confidence interval."""

    mean: float
    lo: float
    hi: float
    level: float

    def overlaps(self, other: "MeanCI") -> bool:
        """Whether the two intervals intersect."""
        return self.lo <= other.hi and other.lo <= self.hi

    def __str__(self) -> str:
        return f"{self.mean:.4f} [{self.lo:.4f}, {self.hi:.4f}]"


def bootstrap_ci(
    values: Sequence[float],
    level: float = 0.95,
    n_boot: int = 2000,
    rng: Optional[np.random.Generator] = None,
) -> MeanCI:
    """Percentile-bootstrap CI for the mean of ``values``.

    With a single observation the interval degenerates to the point.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("values must be non-empty")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    mean = float(x.mean())
    if x.size == 1:
        return MeanCI(mean, mean, mean, level)
    # Default fixed resample stream: CIs quoted in artifacts must be
    # identical on every rebuild; callers needing independent resamples
    # pass their own generator.
    # repro: allow[DET001]
    rng = rng if rng is not None else np.random.default_rng(0)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    boots = x[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(boots, [alpha, 1.0 - alpha])
    return MeanCI(mean, float(lo), float(hi), level)


def paired_permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    n_perm: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Two-sided sign-flip permutation p-value for mean(a - b) != 0.

    ``a`` and ``b`` are per-trace metrics of two schedulers on the *same*
    traces (paired). Small p => the difference is unlikely under the
    exchange-null. With all-zero differences returns 1.0.
    """
    da = np.asarray(a, dtype=float)
    db = np.asarray(b, dtype=float)
    if da.shape != db.shape or da.size == 0:
        raise ValueError("a and b must be non-empty and aligned")
    diff = da - db
    observed = abs(diff.mean())
    if observed == 0.0:
        return 1.0
    # Same fixed-stream contract as bootstrap_ci: published p-values
    # must not drift between reruns.
    # repro: allow[DET001]
    rng = rng if rng is not None else np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], size=(n_perm, diff.size))
    null = np.abs((signs * diff).mean(axis=1))
    # Add-one correction keeps the p-value away from an impossible 0.
    return float((np.sum(null >= observed - 1e-15) + 1) / (n_perm + 1))


def summarize(
    values: Sequence[float],
    level: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float]:
    """(mean, ci_lo, ci_hi) convenience wrapper around :func:`bootstrap_ci`."""
    ci = bootstrap_ci(values, level=level, rng=rng)
    return ci.mean, ci.lo, ci.hi
