"""Value types for analysis results: rational-linear and multilinear functions.

A one-way sensitivity function is a quotient of two lines in one parameter;
an n-way function of the evidence probability is multilinear, held as one
coefficient per subset of the parameters.  `subset_products` builds one
product per subset from per-parameter factor pairs; evaluating a multilinear
function and every n-way equation row are such products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedPointError
from .network import ParameterRef


@dataclass(frozen=True)
class LinearCoeffs:
    """A line c(x) = slope * x + intercept."""

    slope: float
    intercept: float

    def at(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class SensitivityFunction:
    """A posterior as a function of one parameter: numerator / denominator lines."""

    parameter: ParameterRef
    numerator: LinearCoeffs
    denominator: LinearCoeffs

    def coefficients(self) -> tuple[float, float, float, float]:
        """(numerator slope, numerator intercept, denominator slope, denominator intercept)."""
        return (self.numerator.slope, self.numerator.intercept,
                self.denominator.slope, self.denominator.intercept)


def at_point(coefficients, x) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative at x (one, or one per row) of each row of
    `SensitivityFunction.coefficients`; raises UndefinedPointError at the
    first row whose denominator is not positive."""
    alpha, beta, gamma, delta = np.asarray(coefficients, dtype=float).T
    den = gamma * x + delta
    bad = np.flatnonzero(~(den > 0))
    if bad.size:
        raise UndefinedPointError(f"denominator {float(den[bad[0]])!r} at "
                                  f"x={float(np.broadcast_to(x, den.shape)[bad[0]])!r} "
                                  "is not positive")
    return (alpha * x + beta) / den, (alpha * delta - beta * gamma) / (den * den)


def evaluate(sf: SensitivityFunction, x: float) -> float:
    """Value of the function at x; requires a strictly positive denominator."""
    return float(at_point([sf.coefficients()], x)[0][0])


def derivative(sf: SensitivityFunction, x: float) -> float:
    """First derivative at x (quotient rule on the two lines)."""
    return float(at_point([sf.coefficients()], x)[1][0])


@dataclass(frozen=True)
class MultilinearFunction:
    """p(e) over a parameter tuple: one coefficient per subset (bitmask keyed).

    coefficients[0] is the constant term; bit i of a mask refers to params[i].
    """

    params: tuple[ParameterRef, ...]
    coefficients: dict[int, float]


def subset_products(factors) -> np.ndarray:
    """Products over the subset lattice, one per mask, in the mask layout above.

    factors[..., i, b] is parameter i's factor when bit i of the mask is b;
    leading axes batch independent rows.  Entry `mask` of the result is the
    product of every parameter's factor for its bit, multiplied lowest bit
    first — the outer product of the per-parameter 2-vectors.
    """
    factors = np.asarray(factors, dtype=float)
    batch = factors.shape[:-2]
    out = np.ones(batch + (1,))
    for i in range(factors.shape[-2]):
        out = (factors[..., i, :, None] * out[..., None, :]).reshape(batch + (-1,))
    return out


def evaluate_multilinear(mf: MultilinearFunction, values) -> float:
    """Value of the multilinear function at a full vector of parameter values."""
    values = np.asarray(tuple(values), dtype=float)
    if len(values) != len(mf.params):
        raise ValueError(
            f"expected {len(mf.params)} parameter values, got {len(values)}")
    terms = subset_products(np.stack([np.ones_like(values), values], axis=-1))
    masks = np.fromiter(mf.coefficients, dtype=np.int64, count=len(mf.coefficients))
    coeffs = np.fromiter(mf.coefficients.values(), dtype=float, count=len(masks))
    return float(coeffs @ terms[masks])
