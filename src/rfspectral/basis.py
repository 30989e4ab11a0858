"""Mapped Fourier basis on the real line: the cot map, midpoint nodes on
(0, pi), the rational basis functions lambda_k, and the phase-corrected DFT
pair (analysis by FFT, synthesis at arbitrary s).

Mode ordering follows the DFT convention throughout: k = 0..ceil(N/2)-1
followed by k = -floor(N/2)..-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KRASNY_EPS = 2.0 ** -52


@dataclass(frozen=True)
class SpectralGrid:
    """N midpoint nodes s_j = pi(2j+1)/(2N) on (0, pi) and their images
    x_j = L cot(s_j), which decrease from large positive to large negative."""

    n: int
    l_scale: float
    s_nodes: np.ndarray
    x_nodes: np.ndarray

    def __post_init__(self):
        self.s_nodes.setflags(write=False)
        self.x_nodes.setflags(write=False)


@dataclass(frozen=True)
class CoeffVector:
    """N complex coefficients in DFT mode order.

    real_samples is set by `analyze` when the samples were real, so that
    u_{-k} = conj(u_k): opmatrix.apply then runs the real path 2 Re(M+ u+)
    over the stored k >= 1 columns only, and the general complex path
    otherwise."""

    coeffs: np.ndarray
    real_samples: bool = False

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def mode_numbers(n: int) -> np.ndarray:
    """Integer mode indices in DFT order: 0..ceil(n/2)-1, -floor(n/2)..-1."""
    k = np.empty(n, dtype=np.int64)
    half_up = (n + 1) // 2
    k[:half_up] = np.arange(half_up)
    k[half_up:] = np.arange(-(n // 2), 0)
    return k


def check_map_scale(l_scale: float) -> None:
    """Raise ValueError unless the map scale L is finite and > 0."""
    if not (math.isfinite(l_scale) and l_scale > 0.0):
        raise ValueError(f"map scale must be finite and > 0, got {l_scale}")


def make_grid(n: int, l_scale: float) -> SpectralGrid:
    """Build the N-node grid for map scale L."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    check_map_scale(l_scale)
    j = np.arange(n, dtype=np.float64)
    s = math.pi * (2.0 * j + 1.0) / (2.0 * n)
    x = l_scale / np.tan(s)
    # cot(pi - s) = -cot(s): mirror the first half so the antisymmetry
    # x[n-1-j] = -x[j] holds exactly, not just to roundoff.
    half = n // 2
    x[n - half :] = -x[half - 1 :: -1]
    if n % 2:
        x[half] = 0.0
    return SpectralGrid(n=n, l_scale=float(l_scale), s_nodes=s, x_nodes=x)


def lambda_k(x, k: int, l_scale: float = 1.0):
    """Rational basis function ((ix - L)/(ix + L))^k.

    The base has unit modulus, so it is evaluated in polar form
    exp(i 2k atan2(L, x)), which stays exact for any |k|.
    """
    theta = np.arctan2(l_scale, x)
    return np.exp(2j * k * theta)


def analyze(samples, grid: SpectralGrid) -> CoeffVector:
    """Coefficients u_k = (exp(-i pi k / N) / N) * DFT(samples), with entries
    of magnitude <= KRASNY_EPS * max|u_k| zeroed, tagged with whether the
    samples were real.  The threshold is relative, so scaling the samples
    by a power of 2 scales the coefficients exactly."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise ValueError(
            f"expected {grid.n} samples, got shape {samples.shape}"
        )
    n = grid.n
    k = mode_numbers(n)
    coeffs = np.fft.fft(samples) * np.exp(-1j * math.pi * k / n) / n
    magnitude = np.abs(coeffs)
    coeffs[magnitude <= KRASNY_EPS * magnitude.max()] = 0.0
    return CoeffVector(coeffs=coeffs, real_samples=np.isrealobj(samples))


def synthesize(coeffs: CoeffVector, s):
    """Evaluate sum_k u_k exp(i 2 k s) at arbitrary s in (0, pi)."""
    k = mode_numbers(coeffs.n)
    s_arr = np.asarray(s, dtype=np.float64)
    phases = np.exp(2j * np.multiply.outer(s_arr, k.astype(np.float64)))
    out = phases @ coeffs.coeffs
    if np.ndim(s) == 0:
        return complex(out)
    return out

