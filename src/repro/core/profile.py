"""Build-time instrumentation for Figures 8–10.

The paper splits the total CAD View construction time into three parts
(Fig. 8): time to compute Compare Attributes, time to generate IUnits,
and "others" (top-k ranking, IUnit and attribute-value similarity).
:class:`BuildProfile` records exactly those buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["BuildProfile"]


@dataclass
class BuildProfile:
    """Wall-clock seconds per build phase."""

    compare_attrs_s: float = 0.0
    iunits_s: float = 0.0
    others_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Sum of the three buckets (the paper's 'total time')."""
        return self.compare_attrs_s + self.iunits_s + self.others_s

    def record(self, bucket: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds into ``bucket``.

        ``bucket`` is one of ``compare_attrs`` / ``iunits`` / ``others``;
        any other name raises :class:`ValueError`.
        """
        if bucket == "compare_attrs":
            self.compare_attrs_s += elapsed
        elif bucket == "iunits":
            self.iunits_s += elapsed
        elif bucket == "others":
            self.others_s += elapsed
        else:
            raise ValueError(f"unknown profile bucket {bucket!r}")

    def as_dict(self) -> Dict[str, float]:
        """All buckets plus the total, as a plain dict."""
        return {
            "compare_attrs_s": self.compare_attrs_s,
            "iunits_s": self.iunits_s,
            "others_s": self.others_s,
            "total_s": self.total_s,
        }

    def __str__(self) -> str:
        return (
            f"compare_attrs={self.compare_attrs_s * 1e3:.1f}ms "
            f"iunits={self.iunits_s * 1e3:.1f}ms "
            f"others={self.others_s * 1e3:.1f}ms "
            f"total={self.total_s * 1e3:.1f}ms"
        )
