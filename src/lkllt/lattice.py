"""Integer-lattice distributions and the discrete difference calculus.

A :class:`LatticeDist` stores a finitely supported probability mass function
as ``(offset, pmf)``: mass ``pmf[i]`` sits at the integer ``offset + i``.
It is immutable; every operation returns a new value.  The one difference
operator, :func:`span_difference`, works on plain 1-d float arrays.  Cumulative
distribution functions are never materialized: the identity "first
difference of the CDF at j equals the mass at j+1" lets all CDF-difference
functionals be computed from pmf differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDistribution, InvalidParameter

_NORM_TOL = 1e-9  # reject mass vectors whose sum is further than this from 1


@dataclass(frozen=True)
class LatticeDist:
    """A finitely supported probability distribution on the integers."""

    offset: int
    pmf: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.pmf, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidDistribution("pmf must be a nonempty 1-d array")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise InvalidDistribution("pmf entries must be finite and nonnegative")
        # exact zeros are trimmed from both ends; argmax finds the first True
        # without the index array that nonzero() builds over the whole pmf
        positive = arr > 0
        first = int(positive.argmax())
        if not positive[first]:
            raise InvalidDistribution("pmf has no positive mass")
        stop = len(arr) - int(positive[::-1].argmax())
        off = int(self.offset) + first
        arr = arr[first:stop]
        total = float(arr.sum())
        if abs(total - 1.0) > _NORM_TOL:
            raise InvalidDistribution(f"pmf sums to {total!r}, not 1")
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "pmf", arr)

    @property
    def support_end(self) -> int:
        """One past the largest support point."""
        return self.offset + len(self.pmf)

    def mean(self) -> float:
        k = np.arange(len(self.pmf))
        return self.offset + float(np.add.reduce(np.multiply(k, self.pmf)))

    def variance(self) -> float:
        k = np.arange(len(self.pmf), dtype=float)
        m = float(np.add.reduce(np.multiply(k, self.pmf)))
        return float(np.add.reduce(np.multiply((k - m) ** 2, self.pmf)))

    def cdf(self) -> np.ndarray:
        """CDF values at the support points offset, offset+1, ..."""
        return np.cumsum(self.pmf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeDist):
            return NotImplemented
        if len(self.pmf) != len(other.pmf):
            return False
        return self.offset == other.offset and bool(np.all(self.pmf == other.pmf))

    def to_json(self) -> str:
        import json

        return json.dumps({"offset": self.offset, "pmf": list(self.pmf)})

    @staticmethod
    def from_json(text: str) -> "LatticeDist":
        import json

        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"offset", "pmf"} <= obj.keys():
            raise InvalidDistribution(
                "a distribution must be a JSON object with 'offset' and 'pmf'"
            )
        if type(obj["offset"]) is not int:  # not a bool, string or fraction
            raise InvalidDistribution(f"offset must be an integer, not {obj['offset']!r}")
        try:
            pmf = np.asarray(obj["pmf"], dtype=float)
        except (TypeError, ValueError):  # an object, a string or a ragged list
            raise InvalidDistribution("pmf must be a list of numbers") from None
        return LatticeDist(obj["offset"], pmf)


def dist_from_weights(offset: int, weights) -> LatticeDist:
    """Normalize a nonnegative weight vector into a LatticeDist.

    Mass at ``offset + i`` is ``weights[i] / sum(weights)``.  Raises
    InvalidDistribution for all-zero, negative or non-finite weights;
    :class:`LatticeDist` makes every check but the positive, finite total.
    """
    arr = np.asarray(weights, dtype=float)
    total = arr.sum()
    if not 0 < total < np.inf:  # also no inf / inf in the division below
        raise InvalidDistribution(f"weights must have a positive, finite sum, not {total!r}")
    return LatticeDist(offset, arr / total)


def empirical_dist(values: np.ndarray) -> LatticeDist:
    """Empirical law of an integer sample."""
    lo = int(values.min())
    return dist_from_weights(lo, np.bincount(values - lo))


def smooth_uniform(F: LatticeDist, m: int) -> LatticeDist:
    """Convolve F with the uniform distribution on {0, ..., m-1}.

    For m = 1 this returns F itself.
    """
    if m < 1:
        raise InvalidParameter("m must be a positive integer")
    if m == 1:
        return F
    kernel = np.full(m, 1.0 / m)
    return LatticeDist(F.offset, np.convolve(F.pmf, kernel))


def span_difference(s: np.ndarray, n: int, m: int) -> np.ndarray:
    """n-fold span-m difference: one step maps f(j) to f(j+m) - f(j).

    ``s`` is a 1-d array, zero outside its ends.  One step is one
    subtraction over a zero-padded copy, so the result is n*m entries longer
    and starts n*m points left of ``s``.
    """
    vals = np.asarray(s, dtype=float)
    if vals.ndim != 1:
        raise InvalidParameter("sequence must be a 1-d array")
    if n < 0:
        raise InvalidParameter("n must be nonnegative")
    if m < 1:
        raise InvalidParameter("m must be a positive integer")
    for _ in range(n):
        ext = np.zeros(len(vals) + 2 * m)
        ext[m : m + len(vals)] = vals
        vals = ext[m:] - ext[:-m]
    return vals


def convolve(F: LatticeDist, G: LatticeDist) -> LatticeDist:
    """Exact convolution (law of the sum of independent variables)."""
    return LatticeDist(F.offset + G.offset, np.convolve(F.pmf, G.pmf))
