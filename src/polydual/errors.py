"""Exception types shared across the package.

Every domain failure carries a stable machine-readable ``code`` so the CLI
can map it onto its error-object contract.  A broken precondition is a
``SchemaError``, raised where it is checked; being a ``ValueError``, it is
caught by library callers as one.  Any other exception is a bug.
"""

from __future__ import annotations

import enum
from typing import Any


class Degeneracy(enum.Enum):
    """Where a point sits relative to a circumcircle; a ``DegenerateError`` carries its value."""

    NONE = "none"
    ON_CIRCUMCIRCLE = "on_circumcircle"
    AT_CENTER = "at_center"


class DomainError(Exception):
    """Base class for geometric/algebraic domain failures (CLI exit code 1)."""

    code = "DOMAIN"

    def __init__(self, message: str, **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.context = context


class RealizabilityError(DomainError):
    """The distance list cannot come from any point/regular-polygon pair."""

    code = "REALIZABILITY"


class DegenerateError(DomainError):
    """A construction was requested in a degenerate configuration."""

    code = "DEGENERATE"


class TriangleInequalityError(RealizabilityError):
    """Three distances break the triangle inequality: the n = 3 realizability test."""

    code = "TRIANGLE_INEQUALITY"


class SharedVertexError(DomainError):
    """The two polygons do not share a vertex."""

    code = "SHARED_VERTEX"


class CongruentError(DomainError):
    """The two polygons are congruent within tolerance."""

    code = "CONGRUENT"


class SchemaError(ValueError):
    """An argument or request that breaks a documented precondition (CLI exit code 2)."""
