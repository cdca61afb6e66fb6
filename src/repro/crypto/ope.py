"""Order-preserving encryption (OPE) of distance values.

This is the primitive behind Yiu et al.'s Metric-Preserving
Transformation (MPT) baseline (§3.2 of the paper): distances stored in
the outsourced index are passed through a secret strictly-increasing
function, so the server can still *compare* them (and hence traverse a
hierarchical index) without learning the true distance distribution.

The scheme here is a keyed random monotone spline:

* a keyed PRNG draws positive increments over a fixed grid spanning the
  value domain,
* their cumulative sum, linearly interpolated, is the encryption
  function — strictly increasing by construction, hence order
  preserving.

As §3.2 stresses, the function must be calibrated on **a representative
sample of the data** before outsourcing (:meth:`fit`); values outside the
calibrated domain are extrapolated with the boundary slopes, which
degrades the hiding of the tails exactly as the paper's criticism of MPT
predicts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import CryptoError

__all__ = ["OrderPreservingEncryption"]


class OrderPreservingEncryption:
    """Keyed strictly-monotone transformation of non-negative values.

    Parameters
    ----------
    key:
        Secret bytes seeding the monotone function.
    resolution:
        Number of grid segments of the spline. More segments hide the
        distribution better at a small memory cost.
    """

    def __init__(self, key: bytes, *, resolution: int = 1024) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise CryptoError("OPE key must be non-empty bytes")
        if resolution < 2:
            raise CryptoError(f"resolution must be >= 2, got {resolution}")
        self._key = bytes(key)
        self._resolution = int(resolution)
        self._domain: tuple[float, float] | None = None
        self._grid: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._slope_forward: float | None = None
        self._slope_inverse: float | None = None

    # -- calibration ---------------------------------------------------------

    def fit(self, sample: np.ndarray, *, margin: float = 0.25) -> "OrderPreservingEncryption":
        """Calibrate the domain from a representative value sample.

        The domain is ``[0, (1 + margin) * max(sample)]``; MPT requires
        the sample to cover the realistic distance range (this is its
        operational weakness on dynamic collections).
        """
        values = np.asarray(sample, dtype=np.float64).ravel()
        if values.size == 0:
            raise CryptoError("OPE calibration sample is empty")
        if np.any(values < 0):
            raise CryptoError("OPE operates on non-negative values")
        high = float(values.max()) * (1.0 + margin)
        if high <= 0.0:
            high = 1.0
        self._calibrate(0.0, high)
        return self

    def _calibrate(self, low: float, high: float) -> None:
        seed_bytes = hashlib.sha256(self._key + b"\x00ope-seed").digest()
        rng = np.random.default_rng(
            np.frombuffer(seed_bytes, dtype=np.uint64).tolist()
        )
        increments = rng.gamma(shape=0.8, scale=1.0, size=self._resolution)
        increments = np.maximum(increments, 1e-9)
        cumulative = np.concatenate([[0.0], np.cumsum(increments)])
        scale = rng.uniform(0.5, 2.0) * (high - low)
        self._grid = np.linspace(low, high, self._resolution + 1)
        self._values = cumulative / cumulative[-1] * scale
        self._domain = (low, high)
        # boundary-extrapolation slopes, precomputed once per
        # calibration instead of on every encrypt/decrypt call
        self._slope_forward = (self._values[-1] - self._values[-2]) / (
            self._grid[-1] - self._grid[-2]
        )
        self._slope_inverse = (self._grid[-1] - self._grid[-2]) / (
            self._values[-1] - self._values[-2]
        )

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._domain is not None

    @property
    def domain(self) -> tuple[float, float]:
        """Calibrated input domain ``(low, high)``."""
        if self._domain is None:
            raise CryptoError("OPE not calibrated; call fit() first")
        return self._domain

    # -- transformation -------------------------------------------------------

    def encrypt(self, value: float | np.ndarray) -> float | np.ndarray:
        """Apply the monotone transformation to a scalar or any array.

        Arrays of any shape (including the construction path's whole
        object×pivot distance matrix) transform elementwise in one
        call; row ``i`` of a matrix input equals ``encrypt(matrix[i])``
        bit for bit.
        """
        if self._grid is None or self._values is None:
            raise CryptoError("OPE not calibrated; call fit() first")
        arr = np.asarray(value, dtype=np.float64)
        if np.any(arr < 0):
            raise CryptoError("OPE operates on non-negative values")
        _low, high = self.domain
        # np.interp clamps outside [low, high]; extend with the
        # precomputed boundary slope so the function stays strictly
        # increasing everywhere.
        out = np.interp(arr, self._grid, self._values)
        over = arr > high
        if np.any(over):
            out = np.where(
                over,
                self._values[-1] + (arr - high) * self._slope_forward,
                out,
            )
        if np.isscalar(value) or arr.ndim == 0:
            return float(out)
        return out

    def decrypt(self, value: float | np.ndarray) -> float | np.ndarray:
        """Approximately invert the transformation (authorized side only)."""
        if self._grid is None or self._values is None:
            raise CryptoError("OPE not calibrated; call fit() first")
        arr = np.asarray(value, dtype=np.float64)
        out = np.interp(arr, self._values, self._grid)
        over = arr > self._values[-1]
        if np.any(over):
            out = np.where(
                over,
                self._grid[-1]
                + (arr - self._values[-1]) * self._slope_inverse,
                out,
            )
        if np.isscalar(value) or arr.ndim == 0:
            return float(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - never leak key material
        state = f"domain={self._domain}" if self.is_fitted else "unfitted"
        return f"OrderPreservingEncryption(resolution={self._resolution}, {state})"
