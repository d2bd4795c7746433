"""Semantic exception hierarchy shared across the package, and
``enum_member``, through which every enum-valued argument is converted so
that a bad value raises ``ArgumentError``."""

from __future__ import annotations

from enum import Enum
from typing import TypeVar

_E = TypeVar("_E", bound=Enum)


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


class NumericsError(BalanceLabError, FloatingPointError):
    """A numeric quantity became non-finite, or an optimization failed to converge."""


class SpecError(ArgumentError):
    """A generation or experiment specification is internally inconsistent."""


def enum_member(kind: type[_E], value) -> _E:
    """``kind(value)``, raising ArgumentError that names the valid values instead of a bare ValueError."""
    try:
        return kind(value)
    except ValueError:
        raise ArgumentError(f"unknown {kind.__name__} {value!r}; expected one of {tuple(m.value for m in kind)}") from None
