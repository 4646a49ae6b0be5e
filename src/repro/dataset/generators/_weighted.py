"""Weighted categorical draws without per-draw ``Generator.choice`` calls.

``rng.choice(k, p=p)`` validates ``p``, builds ``cdf = p.cumsum();
cdf /= cdf[-1]`` and returns ``cdf.searchsorted(rng.random(),
side="right")``: one uniform double per draw.  :func:`option_table`
builds that cdf once per option list, so a draw is the same uniform
looked up in the same floats — by ``bisect.bisect_right`` for a scalar,
by ``searchsorted`` for a block — and picks the same index.  See
DESIGN.md section 16.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def option_table(
    options: Sequence[Tuple[str, float]],
) -> Tuple[Tuple[str, ...], np.ndarray]:
    """``(values, cdf)`` of a ``(value, weight)`` option list.

    Weights need not sum to one; they are normalized exactly as the
    generators always did (``p = w / w.sum()``) before the cdf is
    built.  Raises :class:`ValueError` on a NaN or negative weight and
    on a sum that is zero or not finite — the inputs ``rng.choice``
    rejects.
    """
    values = tuple(value for value, _ in options)
    weights = np.array([weight for _, weight in options], dtype=float)
    if np.isnan(weights).any():
        raise ValueError(f"option weights contain NaN: {options!r}")
    if (weights < 0).any():
        raise ValueError(f"option weights must be non-negative: {options!r}")
    total = weights.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(
            f"option weights must have a positive, finite sum: {options!r}"
        )
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return values, cdf
