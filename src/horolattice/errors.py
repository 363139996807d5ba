"""Shared exception types.

Errors are split by what the caller can do about them: bad inputs
(ValueError family), exhausted enumeration budgets (retry with a larger
budget or smaller instance), and exhausted floating precision (shrink the
flow time; there is no silent degradation anywhere in the package).
A stage that works on a stack raises a budget or precision failure with
the `row` of the stack that failed, and nothing else of where it ran; a
per-row loop gives a failure of a stack of one its row (`_in_row`).  A
caller that knows the site names it (`_naming_site`): the stage, the
sample (or the base point) and t, as the orbits' block loop and
base-point reduction, the siegel count and criterion 05's heights do.
"""

from __future__ import annotations

from contextlib import contextmanager
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
    """An exhaustive enumeration hit its node budget; `nodes` is the count it reached, `row` its stack's failing row."""

    def __init__(self, message: str, nodes: int = 0, row: Optional[int] = None):
        super().__init__(message)
        self.nodes = nodes
        self.row = row


class PrecisionError(RuntimeError):
    """Floating precision exhausted (a residual of the factorization certificate too large); `row` as above."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class EmptyLocalizationError(RuntimeError):
    """Localization retained too little mass to be meaningful."""


class ConfigError(ValueError):
    """Experiment configuration violates a documented cap or schema."""


def _renamed(exc, message: str, row: Optional[int]):
    """exc's class with a new message and row, its traceback and (a budget failure) its nodes."""
    nodes = (exc.nodes,) if isinstance(exc, BudgetExceededError) else ()
    return type(exc)(message, *nodes, row=row).with_traceback(exc.__traceback__)


@contextmanager
def _in_row(i: int):
    """Within it, a budget or precision failure is row i of the caller's stack."""
    try:
        yield
    except (BudgetExceededError, PrecisionError) as exc:
        raise _renamed(exc, str(exc), i) from None


@contextmanager
def _naming_site(name: str, first: Optional[int], t: Optional[float]):
    """Re-raise a budget or precision failure as "{name} of sample {first + row} at t = {t:g}: ...", row first + row.

    first = None names the base point (row None), and t = None leaves out the " at t = ..." part.
    """
    try:
        yield
    except (BudgetExceededError, PrecisionError) as exc:
        row = None if first is None else first + exc.row
        site = f"{name} of the base point" if row is None else f"{name} of sample {row}"
        at = "" if t is None else f" at t = {t:g}"
        raise _renamed(exc, f"{site}{at}: {exc}", row) from None
