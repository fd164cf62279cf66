"""The resilient supervisor: retry, quarantine, audit, self-heal.

:class:`ResilientMaintainer` wraps any ``ALGORITHMS`` entry and turns
"a batch raised" from a stream-killing event into a reported, recoverable
one:

* **bounded retry** -- a failed batch is retried up to ``max_retries``
  times; the transactional ``apply_batch`` guarantees every attempt starts
  from the exact pre-batch state, so retries are sound (transient faults
  -- callback bugs tripped by iteration order, injected chaos -- succeed
  on the second attempt).  Retries are paced by a deterministic
  :class:`~repro.resilience.backoff.ExponentialBackoff` (jitter seeded
  from ``(seed, batch index, attempt)``) against an injectable clock --
  tests pass a :class:`~repro.resilience.backoff.ManualClock` and wait
  zero real time, production gets polite spacing for free;
* **quarantine** -- a batch that exhausts its retries is recorded in
  :attr:`quarantine` with a structured :class:`QuarantinedBatch` report
  and *skipped*; the stream continues and the exception is never
  re-raised (the caller inspects the returned :class:`BatchReport`);
* **drift audit** -- every ``audit_every`` batches, a sampled
  :func:`~repro.core.verify.verify_kappa` compares ``audit_sample``
  random vertices against the peeling oracle; on any mismatch the
  maintainer **self-heals** by a full static reseed (the documented
  recovery path for state drift) and the event is counted;
* **counters** -- :attr:`stats` carries
  ``batches / applied / retries / quarantined / audits / audit_failures /
  heals`` for the eval report.

The supervisor quacks like a maintainer (``kappa`` / ``kappa_of`` /
``tau`` / ``sub`` / ``apply_batch``), so the :class:`CoreMaintainer`
facade and the experiment drivers can use it interchangeably
(``CoreMaintainer(..., resilient=True, audit_every=20)``).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.resilience.backoff import ExponentialBackoff, SystemClock

__all__ = ["BatchReport", "QuarantinedBatch", "ResilientMaintainer"]

Vertex = Hashable

# lazy %s-style formatting throughout: these sit on per-batch hot paths,
# and building reprs of batches or quarantine records eagerly would cost
# more than the supervision itself when logging is disabled
logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuarantinedBatch:
    """A batch that failed every attempt, returned to the caller."""

    index: int              #: stream position (batches seen by the supervisor)
    batch: object           #: the offending batch, for inspection/replay
    error_type: str         #: exception class name of the final failure
    error: str              #: stringified final exception
    attempts: int           #: how many times application was attempted

    def __str__(self) -> str:
        return (
            f"batch #{self.index} quarantined after {self.attempts} attempts: "
            f"{self.error_type}: {self.error}"
        )


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one supervised batch application."""

    status: str                       #: ``"ok"`` | ``"retried"`` | ``"quarantined"``
    attempts: int
    error: Optional[str] = None       #: final error when quarantined
    audit: Optional[str] = None       #: ``"clean"`` | ``"healed"`` | None (no audit ran)

    @property
    def ok(self) -> bool:
        return self.status != "quarantined"


def _fresh_stats() -> Dict[str, int]:
    return {
        "batches": 0,
        "applied": 0,
        "retries": 0,
        "quarantined": 0,
        "audits": 0,
        "audit_failures": 0,
        "heals": 0,
        "backoff_waits": 0,
    }


class ResilientMaintainer:
    """Supervise any maintenance algorithm with retry/quarantine/audit.

    Parameters
    ----------
    sub, algorithm, rt:
        As for :func:`~repro.core.maintainer.make_maintainer`.
    max_retries:
        Re-attempts after a failed application (0 = quarantine on first
        failure).  Rollback makes each attempt start from clean state.
    audit_every:
        Run a sampled drift audit every N batches (0 disables).
    audit_sample:
        Vertices compared per audit (``None`` = all).
    seed:
        Seeds the audit's sampling RNG and the backoff jitter
        (determinism for tests).
    backoff:
        Retry pacing: ``"default"`` (an
        :class:`~repro.resilience.backoff.ExponentialBackoff` seeded from
        ``seed``), an explicit policy instance, or ``None`` to retry
        immediately (the pre-backoff behaviour).
    clock:
        Clock the backoff sleeps against
        (:class:`~repro.resilience.backoff.SystemClock` by default; tests
        inject a :class:`~repro.resilience.backoff.ManualClock` so no
        real time passes).
    kwargs:
        Forwarded to the algorithm class.
    """

    def __init__(
        self,
        sub,
        algorithm: str = "mod",
        rt=None,
        *,
        max_retries: int = 1,
        audit_every: int = 0,
        audit_sample: Optional[int] = 32,
        seed: int = 0,
        backoff="default",
        clock=None,
        **kwargs,
    ) -> None:
        from repro.core.maintainer import make_maintainer

        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if audit_every < 0:
            raise ValueError("audit_every must be >= 0")
        self._factory = lambda tau=None: make_maintainer(
            sub, algorithm, rt, **(dict(kwargs, tau=tau) if tau is not None else kwargs)
        )
        self.impl = self._factory()
        self.max_retries = max_retries
        self.audit_every = audit_every
        self.audit_sample = audit_sample
        self._rng = random.Random(seed)
        self.backoff = ExponentialBackoff.coerce(backoff, seed=seed)
        self.clock = clock if clock is not None else SystemClock()
        #: total seconds spent waiting between retry attempts
        self.backoff_s = 0.0
        self.stats: Dict[str, int] = _fresh_stats()
        self.quarantine: List[QuarantinedBatch] = []

    # -- maintainer protocol ---------------------------------------------------
    @property
    def sub(self):
        return self.impl.sub

    @property
    def rt(self):
        return self.impl.rt

    @property
    def tau(self):
        return self.impl.tau

    @property
    def algorithm(self) -> str:
        return self.impl.algorithm

    @property
    def batches_processed(self) -> int:
        return self.impl.batches_processed

    def kappa(self):
        return self.impl.kappa()

    def kappa_of(self, v: Vertex) -> int:
        return self.impl.kappa_of(v)

    # -- supervision -----------------------------------------------------------
    def apply_batch(self, batch) -> BatchReport:
        """Apply one batch under supervision; never raises for batch
        failures (the report carries the outcome)."""
        self.stats["batches"] += 1
        attempts = 0
        last: Optional[BaseException] = None
        while attempts <= self.max_retries:
            attempts += 1
            try:
                self.impl.apply_batch(batch)
                last = None
                break
            except Exception as exc:  # noqa: BLE001 -- supervision boundary
                last = exc
                if attempts <= self.max_retries:
                    self.stats["retries"] += 1
                    if self.backoff is not None:
                        wait = self.backoff.delay(
                            attempts - 1, key=self.stats["batches"] - 1
                        )
                        self.clock.sleep(wait)
                        self.backoff_s += wait
                        self.stats["backoff_waits"] += 1
        if last is not None:
            record = QuarantinedBatch(
                index=self.stats["batches"] - 1,
                batch=batch,
                error_type=type(last).__name__,
                error=str(last),
                attempts=attempts,
            )
            self.quarantine.append(record)
            self.stats["quarantined"] += 1
            logger.warning("%s", record)
            return BatchReport("quarantined", attempts, error=str(last),
                               audit=self._maybe_audit())
        self.stats["applied"] += 1
        status = "ok" if attempts == 1 else "retried"
        return BatchReport(status, attempts, audit=self._maybe_audit())

    def apply_change(self, change) -> BatchReport:
        from repro.graph.batch import Batch

        return self.apply_batch(Batch([change]))

    # -- drift audit and self-heal ---------------------------------------------
    def _maybe_audit(self) -> Optional[str]:
        if not self.audit_every or self.stats["batches"] % self.audit_every:
            return None
        return self.audit()

    def audit(self) -> str:
        """Run one sampled drift audit now; self-heal on mismatch.

        Returns ``"clean"`` or ``"healed"``.
        """
        from repro.core.verify import verify_kappa

        self.stats["audits"] += 1
        mismatches = verify_kappa(
            self.impl,
            raise_on_mismatch=False,
            sample=self.audit_sample,
            rng=self._rng,
        )
        if not mismatches:
            logger.debug(
                "audit #%d clean (sample=%s)",
                self.stats["audits"], self.audit_sample,
            )
            return "clean"
        self.stats["audit_failures"] += 1
        logger.warning(
            "audit #%d found %d drifted vertices; self-healing",
            self.stats["audits"], len(mismatches),
        )
        self.heal()
        return "healed"

    def heal(self) -> None:
        """Static reseed: rebuild the algorithm instance from scratch over
        the live substrate (tau, the backend's derived state, caches, and
        any algorithm-specific state are all regenerated)."""
        batches = self.impl.batches_processed
        self.impl = self._factory()
        self.impl.batches_processed = batches
        self.stats["heals"] += 1
        logger.info("healed by static reseed after %d batches", batches)

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"ResilientMaintainer({self.algorithm!r}, batches={s['batches']}, "
            f"retries={s['retries']}, quarantined={s['quarantined']}, "
            f"heals={s['heals']})"
        )
