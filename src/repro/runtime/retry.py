"""Retry with jittered exponential backoff.

Flaky auxiliary stages (checkpoint IO, periodic evaluation) must never
kill a training run: transient failures are retried with jittered
exponential backoff, and :class:`repro.runtime.TrainingSupervisor`
logs and skips a stage whose retries are exhausted.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple, Type

from repro.utils.seeding import spawn_rng

#: Cap (seconds) and fractional jitter of :func:`retry_call`'s backoff.
RETRY_MAX_DELAY = 2.0
RETRY_JITTER = 0.5


class RetryExhaustedError(RuntimeError):
    """All retry attempts failed; the last exception is chained as cause."""


def backoff_delay(
    attempt: int,
    *,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    jitter: float = 0.5,
    rng=None,
) -> float:
    """Jittered exponential backoff for 1-based ``attempt``.

    The deterministic part is ``base_delay * 2**(attempt-1)`` capped at
    ``max_delay``; the result is then multiplied by a random factor in
    ``[1, 1+jitter]`` drawn from ``rng`` so that parallel clients
    retrying a shared resource de-synchronise.  This is the single
    backoff schedule shared by :func:`retry_call` and the serving
    fleet's retry-on-deadline and respawn paths.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based and must be at least 1")
    rng = rng if rng is not None else spawn_rng("retry-backoff")
    delay = min(max_delay, base_delay * (2.0 ** (attempt - 1)))
    return delay * (1.0 + jitter * float(rng.random()))


def retry_call(
    fn: Callable[[], Any],
    *,
    attempts: int = 3,
    base_delay: float = 0.05,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    describe: str = "operation",
    sleep: Callable[[float], None] = time.sleep,
    rng=None,
    logger=None,
) -> Any:
    """Call ``fn`` up to ``attempts`` times with exponential backoff.

    The backoff for attempt *k* is ``base_delay * 2**(k-1)`` capped at
    :data:`RETRY_MAX_DELAY`, multiplied by a random factor in
    ``[1, 1 + RETRY_JITTER]``
    so that parallel workers retrying a shared resource de-synchronise.
    ``sleep`` and ``rng`` are injectable for deterministic tests.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    rng = rng if rng is not None else spawn_rng("retry-backoff")
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt == attempts:
                raise RetryExhaustedError(
                    f"{describe} failed after {attempts} attempt(s): {exc!r}"
                ) from exc
            delay = backoff_delay(attempt, base_delay=base_delay,
                                  max_delay=RETRY_MAX_DELAY,
                                  jitter=RETRY_JITTER, rng=rng)
            if logger is not None:
                logger.log(
                    f"{describe} failed (attempt {attempt}/{attempts}): "
                    f"{exc!r}; retrying in {delay:.2f}s"
                )
            sleep(delay)

