"""Per-dataset circuit breakers for CAD View builds.

A breaker guards one dataset (one FROM table).  While *closed* it just
counts consecutive failures and deadline blowouts; once the trip
threshold is reached it *opens*: for ``cooldown_s`` every new build
against that dataset is short-circuited to the PR-1 degradation ladder
(a tight budget that forces sampled selection and whole-partition
IUnits) instead of burning a pool thread on the full pipeline.  After
the cooldown one *half-open* probe build runs at full budget; success
closes the breaker, failure re-opens it for another cooldown.

The state machine is deliberately small and fully synchronous — every
transition happens under one lock inside :meth:`on_success` /
:meth:`on_failure` / :meth:`allow` — so its behavior is exhaustively
unit-testable with an injected clock (``now``).

Success for breaker purposes means "the build produced an answer": a
*degraded* build still counts as success (the ladder did its job); a
rejection never reaches the breaker (admission control is upstream).
Both serving transports settle a finished build the same way, through
:meth:`CircuitBreaker.settle`.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, registry
from repro.query.ast import CreateCadViewStatement, ExplainStatement
from repro.robustness.budget import Budget

__all__ = [
    "BreakerState", "BreakerConfig", "CircuitBreaker", "BreakerBoard",
    "breaker_key", "default_open_budget",
]


def breaker_key(stmt: object) -> Optional[str]:
    """The dataset a statement builds against, if it builds at all.

    Only pipeline builds are breaker-guarded; reads against the view
    catalog never trip or consult a breaker.
    """
    if isinstance(stmt, ExplainStatement):
        return breaker_key(stmt.inner) if stmt.analyze else None
    if isinstance(stmt, CreateCadViewStatement):
        return stmt.table
    return None


def default_open_budget() -> Budget:
    """What a short-circuited build runs under while its breaker is open.

    Tight enough to force the sampling/greedy rungs of the degradation
    ladder, generous enough that a degraded answer usually completes.
    """
    return Budget(deadline_s=0.25, max_rows=2000, retries=0)


class BreakerState(enum.Enum):
    """The three positions of the breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip and recovery policy of one breaker.

    trip_after:
        Consecutive failures (or deadline blowouts) that open the
        breaker.
    cooldown_s:
        How long an open breaker short-circuits builds before allowing
        a half-open probe.
    probe_successes:
        Probe builds that must succeed in half-open before the breaker
        closes again.
    """

    trip_after: int = 3
    cooldown_s: float = 5.0
    probe_successes: int = 1

    def __post_init__(self) -> None:
        if self.trip_after < 1:
            raise ValueError(
                f"trip_after must be >= 1, got {self.trip_after}"
            )
        if self.cooldown_s <= 0:
            raise ValueError(
                f"cooldown_s must be > 0, got {self.cooldown_s}"
            )
        if self.probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )


class CircuitBreaker:
    """Closed -> open -> half-open state machine for one dataset."""

    def __init__(
        self,
        key: str,
        config: BreakerConfig = BreakerConfig(),
        now: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.key = key
        self.config = config
        self._now = now
        self._metrics = metrics if metrics is not None else registry()
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0          # consecutive, while closed
        self._probes_ok = 0         # successful probes, while half-open
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> BreakerState:
        """The current position (open may lazily report half-open)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    # -- the executor-facing protocol --------------------------------------

    def allow(self) -> Tuple[bool, bool]:
        """Gate one incoming build: ``(full_pipeline, is_probe)``.

        CLOSED -> ``(True, False)``: run the full pipeline.
        OPEN   -> ``(False, False)``: short-circuit to degraded mode.
        HALF_OPEN -> ``(True, True)`` for the single in-flight probe,
        ``(False, False)`` for everyone else while the probe runs.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True, False
            if self._state is BreakerState.HALF_OPEN \
                    and not self._probe_in_flight:
                self._probe_in_flight = True
                return True, True
            return False, False

    def on_success(self, probe: bool = False) -> None:
        """Record a completed build (ok or degraded — both count)."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN and probe:
                self._probe_in_flight = False
                self._probes_ok += 1
                if self._probes_ok >= self.config.probe_successes:
                    self._transition(BreakerState.CLOSED)
                    self._failures = 0
            elif self._state is BreakerState.CLOSED:
                self._failures = 0

    def on_cancelled(self, probe: bool = False) -> None:
        """Record a build cancelled for reasons unrelated to its health.

        A client disconnect or a drain cancels the build before it can
        prove anything, so the breaker must treat the attempt as
        *inconclusive*: no failure is counted, and — the half-open race
        this fixes — a cancelled probe releases the probe slot and the
        breaker **stays half-open** instead of latching back to open
        with a fresh cooldown.  The next arrival becomes the new probe.
        (Deadline-triggered cancellations do not come here;
        :meth:`settle` routes them to :meth:`on_failure` — blowing the
        serving deadline is precisely the unhealth the breaker exists
        to detect.)
        """
        with self._lock:
            if self._state is BreakerState.HALF_OPEN and probe:
                self._probe_in_flight = False

    def on_failure(self, probe: bool = False) -> None:
        """Record a failed or deadline-blown build."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN and probe:
                # the probe failed: straight back to open, fresh cooldown
                self._probe_in_flight = False
                self._transition(BreakerState.OPEN)
                self._opened_at = self._now()
            elif self._state is BreakerState.CLOSED:
                self._failures += 1
                if self._failures >= self.config.trip_after:
                    self._transition(BreakerState.OPEN)
                    self._opened_at = self._now()

    def settle(
        self,
        status: str,
        cancel_reason: Optional[str],
        probe: bool = False,
    ) -> None:
        """Record how a gated build ended, from its statement status.

        ``ok`` (degraded included) is a success; a cancellation for any
        reason but the deadline is inconclusive (:meth:`on_cancelled`);
        everything else, deadline blowouts included, is a failure.
        """
        if status == "ok":
            self.on_success(probe=probe)
        elif status == "cancelled" and "deadline" not in (cancel_reason or ""):
            self.on_cancelled(probe=probe)
        else:
            self.on_failure(probe=probe)

    # -- internals (call with self._lock held) -----------------------------

    def _maybe_half_open(self) -> None:
        # lock held by every caller (allow/state/on_*, see the section
        # header); the lexical check cannot see through the call boundary
        if self._state is BreakerState.OPEN and (
            self._now() - self._opened_at >= self.config.cooldown_s
        ):
            self._transition(BreakerState.HALF_OPEN)
            # repro-lint: ignore[RL007]
            self._probes_ok = 0
            # repro-lint: ignore[RL007]
            self._probe_in_flight = False

    def _transition(self, to: BreakerState) -> None:
        if to is self._state:
            return
        self._metrics.counter(
            f"serve.breaker.{self.key}."
            f"{self._state.value}_to_{to.value}"
        ).inc()
        # lock held by the caller (see the section header)
        # repro-lint: ignore[RL007]
        self._state = to
        self._metrics.gauge(f"serve.breaker.{self.key}.open").set(
            0.0 if to is BreakerState.CLOSED else 1.0
        )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.key!r}, {self._state.value}, "
            f"failures={self._failures})"
        )


class BreakerBoard:
    """Get-or-create registry of per-dataset breakers."""

    def __init__(
        self,
        config: BreakerConfig = BreakerConfig(),
        now: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self._now = now
        self._metrics = metrics
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, key: str) -> CircuitBreaker:
        """The breaker guarding ``key`` (a dataset/table name)."""
        with self._lock:
            brk = self._breakers.get(key)
            if brk is None:
                brk = self._breakers[key] = CircuitBreaker(
                    key, self.config, now=self._now,
                    metrics=self._metrics,
                )
            return brk

    def states(self) -> Dict[str, str]:
        """Key -> state name, for reports and the stress driver."""
        with self._lock:
            breakers = dict(self._breakers)
        return {k: b.state.value for k, b in sorted(breakers.items())}
