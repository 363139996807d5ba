"""Shared exception types.

Errors are split by what the caller can do about them: bad inputs
(ValueError family), exhausted enumeration budgets (retry with a larger
budget or smaller instance), and exhausted floating precision (shrink the
flow time; there is no silent degradation anywhere in the package).
`_naming_sample` re-raises a failure under a message that says where it
happened: the stage, the sample (or the base point) and the flow time.
A stage names row i of the stack it is given; within `_naming_rows`
that row is sample first + i, so a block of an orbit names its samples
by their index in the orbit.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class DeterminantError(ValueError):
    """Matrix is not unimodular within tolerance."""


class FlowRangeError(ValueError):
    """Diagonal flow time would overflow double precision."""


class RationalityError(ValueError):
    """Exact-rational input required (or forbidden) for this operation."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration hit its node budget; `nodes` is the count it reached."""

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class PrecisionError(RuntimeError):
    """Floating precision exhausted (a residual of the factorization certificate too large)."""


class EmptyLocalizationError(RuntimeError):
    """Localization retained too little mass to be meaningful."""


class ConfigError(ValueError):
    """Experiment configuration violates a documented cap or schema."""


#: The orbit index of row 0 of the stack being reduced (`_naming_rows`).
_FIRST_ROW: ContextVar = ContextVar("first_row", default=0)


@contextmanager
def _naming_rows(first: int):
    """Within it, a failure site names row i of a stack as sample first + i."""
    token = _FIRST_ROW.set(first)
    try:
        yield
    finally:
        _FIRST_ROW.reset(token)


def _failure_site(stage: str, i: Optional[int], t: Optional[float]) -> str:
    """Where a failure happened: the stage, sample i (the base point if None) and t.

    i is a row of the stack a stage is given, offset by `_naming_rows`.
    t = None leaves the flow time out, for a batch reduced outside a flow.
    """
    what = "the base point" if i is None else f"sample {_FIRST_ROW.get() + i}"
    return f"{stage} of {what}" if t is None else f"{stage} of {what} at t = {t:g}"


@contextmanager
def _naming_sample(stage: str, i: Optional[int], t: Optional[float]):
    """Re-raise a typed failure as its own class, naming stage, sample i and t.

    i = None names the base point instead of a sample.  The original
    traceback is kept, so the innermost failing frame stays visible; a
    budget failure keeps its `nodes`.
    """
    try:
        yield
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{_failure_site(stage, i, t)}: {exc}", nodes=exc.nodes).with_traceback(
            exc.__traceback__
        ) from None
    except (PrecisionError, DeterminantError) as exc:
        raise type(exc)(f"{_failure_site(stage, i, t)}: {exc}").with_traceback(
            exc.__traceback__
        ) from None
