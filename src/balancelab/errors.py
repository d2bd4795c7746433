"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class BalanceLabError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(BalanceLabError, ValueError):
    """Arguments violate a contract (overlapping sets, bad shapes, bad ranges)."""


class UnknownVariableError(BalanceLabError, NameError):
    """A variable or node name is not present in the object it was looked up in."""


class DegenerateEvidence(BalanceLabError):
    """Conditioning event has zero probability."""


class DegenerateContingency(BalanceLabError):
    """A contingency table row or column has zero total."""


class DegenerateTarget(BalanceLabError):
    """A classification target has a single class where two are required."""


class UnbalanceableSupport(BalanceLabError):
    """The balancing reweight is undefined on some target cell.

    Raised when a target cell has zero mass while its marginals are positive
    (exact balancing) or when a target cell is empty in a finite batch.
    """


class EdgeError(BalanceLabError):
    """A graph edit refers to an edge that does not exist."""


class CycleError(BalanceLabError):
    """The parent relation of a network is cyclic."""


class LabelError(BalanceLabError):
    """A covariate decomposition labelling is incomplete or inconsistent."""


class CoverageError(BalanceLabError):
    """A predictor is undefined on a reachable state."""


class CounterexampleNotFound(BalanceLabError):
    """No factorization violation was found within the retry budget."""


class SampleSizeError(BalanceLabError, ValueError):
    """A sample is too small for the requested estimator."""


class NumericsError(BalanceLabError, FloatingPointError):
    """A numeric quantity became non-finite during optimization."""


class SpecError(BalanceLabError, ValueError):
    """A generation or experiment specification is internally inconsistent."""


class ConfigError(BalanceLabError, ValueError):
    """A configuration file has unknown keys or unparsable values."""


@contextmanager
def text_line(lineno: int) -> Iterator[None]:
    """Re-raise an IndexError or ValueError from parsing text line ``lineno``
    as an ArgumentError that names the line; package errors pass through."""
    try:
        yield
    except BalanceLabError:
        raise
    except (IndexError, ValueError) as exc:
        raise ArgumentError(f"line {lineno}: malformed line ({exc})") from exc
