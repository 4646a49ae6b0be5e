"""Wall-clock and work budgets for CAD View construction.

A :class:`Budget` is an immutable *spec*: how long a build may run, how
many rows/cells it may look at, and how often transient failures may be
retried.  Calling :meth:`Budget.begin` starts the clock and returns a
:class:`BudgetClock`, which is what gets threaded through the pipeline.

The pipeline cooperates with the clock at *checkpoints* — cheap
``clock.check(phase)`` calls placed inside every iteration loop that can
run long (Lloyd iterations, per-candidate chi-square scoring, div-astar
node expansions).  A checkpoint raises :class:`BudgetExceededError` once
the deadline has passed; the builder catches it at phase boundaries and
steps down its degradation ladder instead of aborting outright.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.cancel import CancelToken

__all__ = ["Budget", "BudgetClock"]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one CAD View build.

    deadline_s:
        Wall-clock budget in seconds; ``None`` means unlimited.
    max_rows:
        Cap on input rows considered; larger inputs are uniformly
        sampled down before the build starts.
    max_cells:
        Cap on ``rows * attributes``; combined with ``max_rows`` into a
        single effective row cap (the tighter of the two wins).
    retries:
        How many times a transient :class:`ConvergenceError` in
        clustering is retried with a fresh seed before degrading.
    degrade_at:
        Fraction of the deadline after which the builder preemptively
        steps down its ladder (greedy top-k, harder cluster sampling)
        rather than waiting for the hard deadline.
    """

    deadline_s: Optional[float] = None
    max_rows: Optional[int] = None
    max_cells: Optional[int] = None
    retries: int = 1
    degrade_at: float = 0.5

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if not 0.0 < self.degrade_at <= 1.0:
            raise ValueError(
                f"degrade_at must be in (0, 1], got {self.degrade_at}"
            )

    def row_cap(self, n_attributes: int) -> Optional[int]:
        """Effective input row cap given the table width (or ``None``)."""
        caps = []
        if self.max_rows is not None:
            caps.append(self.max_rows)
        if self.max_cells is not None and n_attributes > 0:
            caps.append(self.max_cells // n_attributes)
        return min(caps) if caps else None

    def begin(
        self, cancel: Optional["CancelToken"] = None
    ) -> "BudgetClock":
        """Start the wall clock; returns the running clock.

        ``cancel`` attaches a cancellation token: every checkpoint then
        also raises :class:`~repro.errors.QueryCancelledError` once the
        token trips, which is how the serving watchdog stops a build
        without the build knowing about the serving layer.
        """
        return BudgetClock(self, cancel)


class BudgetClock:
    """A started :class:`Budget`: the object the pipeline checks against."""

    __slots__ = ("budget", "cancel", "_start")

    def __init__(
        self, budget: Budget, cancel: Optional["CancelToken"] = None
    ):
        self.budget = budget
        self.cancel = cancel
        self._start = time.perf_counter()

    # -- time queries -----------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since :meth:`Budget.begin`."""
        return time.perf_counter() - self._start

    def remaining(self) -> float:
        """Seconds left before the deadline (``inf`` when unlimited)."""
        if self.budget.deadline_s is None:
            return math.inf
        return self.budget.deadline_s - self.elapsed()

    def pressure(self) -> float:
        """Fraction of the deadline already spent (0.0 when unlimited)."""
        if self.budget.deadline_s is None:
            return 0.0
        return self.elapsed() / self.budget.deadline_s

    def exceeded(self) -> bool:
        """True once the deadline has passed."""
        return self.remaining() < 0.0

    def under_pressure(self) -> bool:
        """True past the ``degrade_at`` fraction of the deadline."""
        return self.pressure() >= self.budget.degrade_at

    # -- cooperative checkpoints ----------------------------------------------

    def check(self, phase: str) -> None:
        """Raise at a checkpoint when the build must stop.

        :class:`~repro.errors.QueryCancelledError` when the attached
        cancel token has tripped (checked first — a cancelled query
        must not be mistaken for a budget blowout and degraded), then
        :class:`BudgetExceededError` once the deadline has passed.
        """
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if self.budget.deadline_s is not None:
            elapsed = self.elapsed()
            if elapsed > self.budget.deadline_s:
                raise BudgetExceededError(
                    phase, elapsed, self.budget.deadline_s
                )

    def checkpoint(self, phase: str) -> Callable[[], None]:
        """A zero-argument ``check`` bound to ``phase``.

        Handed to inner loops (k-means iterations, div-astar pops) that
        should not know budget phase names themselves.
        """
        return lambda: self.check(phase)

    def __repr__(self) -> str:
        deadline = self.budget.deadline_s
        if deadline is None:
            return f"BudgetClock(unlimited, elapsed={self.elapsed():.3f}s)"
        return (
            f"BudgetClock({self.elapsed():.3f}s of {deadline:.3f}s, "
            f"pressure={self.pressure():.0%})"
        )
