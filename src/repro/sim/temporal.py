"""Temporal-logic style operators over finite time series.

Eventual properties ("there exists a time after which ...") are checked on
finite traces as *holds-in-suffix* queries that also report the convergence
point, so experiments can record both the verdict and when stabilization
happened.  A series is a time-ordered list of ``(time, value)`` samples; the
value is assumed to persist until the next sample (step function).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.types import Time

T = TypeVar("T")
Series = Sequence[tuple[Time, T]]


def convergence_time(
    series: Series,
    pred: Callable[[T], bool],
    initial: Any = None,
) -> Optional[Time]:
    """Earliest time after which ``pred(value)`` holds for the rest of the series.

    Returns the start of the final maximal suffix in which every sample (and
    the persisting final value) satisfies ``pred``; ``None`` if the final
    value itself violates ``pred`` or the series is empty and ``initial``
    violates it.  A result of ``0.0`` means the predicate held throughout.
    """
    samples = list(series)
    if initial is not None:
        samples = [(0.0, initial)] + samples
    if not samples:
        return None
    conv: Optional[Time] = None
    for ts, v in samples:
        if pred(v):
            if conv is None:
                conv = ts
        else:
            conv = None
    return conv

