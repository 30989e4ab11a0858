"""Mapped Fourier basis on the real line: the cot map, midpoint nodes on
(0, pi), the rational basis functions lambda_k, and the phase-corrected DFT
pair for real samples (analysis by FFT, synthesis at arbitrary s).

A coefficient vector holds the modes k = 0..N//2 of real samples; the mode
-k is the conjugate of k.  `mode_numbers` gives the DFT order of all N
modes, which the matrix build folds over.
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
    """The complex coefficients u_0..u_{N//2} of N real samples; u_{-k} is
    conj(u_k)."""

    coeffs: np.ndarray
    n: int

    def __post_init__(self):
        if len(self.coeffs) != self.n // 2 + 1:
            raise ValueError(
                f"N = {self.n} takes {self.n // 2 + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        self.coeffs.setflags(write=False)


def mode_numbers(n: int) -> np.ndarray:
    """Integer mode indices in DFT order: 0..ceil(n/2)-1, -floor(n/2)..-1."""
    return np.fft.ifftshift(np.arange(-(n // 2), (n + 1) // 2))


def check_grid(n: int, l_scale: float) -> None:
    """Raise ValueError unless N >= 2 and the map scale L is finite and > 0
    with finite outer nodes +-L cot(pi/(2N))."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not (math.isfinite(l_scale) and l_scale > 0.0):
        raise ValueError(f"map scale must be finite and > 0, got {l_scale}")
    # make_grid's first node, bit for bit, divided in Python floats, which
    # overflow with no warning.
    if not math.isfinite(float(l_scale) / float(np.tan(math.pi / (2.0 * n)))):
        raise ValueError(
            f"map scale {l_scale} puts the outer nodes of N = {n} at infinity"
        )


def make_grid(n: int, l_scale: float) -> SpectralGrid:
    """Build the N-node grid for map scale L."""
    check_grid(n, l_scale)
    j = np.arange(n, dtype=np.float64)
    s = math.pi * (2.0 * j + 1.0) / (2.0 * n)
    # cot(pi - s) = -cot(s): the second half mirrors the first, so the
    # antisymmetry x[n-1-j] = -x[j] holds exactly, not just to roundoff, and
    # the middle node of odd N is 0.
    half = n // 2
    x = np.zeros(n)
    x[:half] = l_scale / np.tan(s[:half])
    x[n - half :] = -x[half - 1 :: -1]
    return SpectralGrid(n=n, l_scale=float(l_scale), s_nodes=s, x_nodes=x)


def lambda_k(x, k: int):
    """Rational basis function ((ix - 1)/(ix + 1))^k at map scale 1; at map
    scale L it is lambda_k(x / L, k).

    The base has unit modulus, so it is evaluated in polar form
    exp(i 2k atan2(1, x)), which stays exact for any |k|.
    """
    return np.exp(2j * k * np.arctan2(1.0, x))


def analyze(samples) -> CoeffVector:
    """Coefficients u_k = (exp(-i pi k / N) / N) * DFT(samples)_k,
    k = 0..N//2, of real samples at the N nodes of any map scale, with
    entries of magnitude <= KRASNY_EPS * max|u_k| zeroed.  The threshold is
    relative, so scaling the samples by a power of 2 scales the coefficients
    exactly.  Complex samples raise ValueError."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"expected a 1-D array of samples, got shape {samples.shape}")
    if np.iscomplexobj(samples):
        raise ValueError("expected real samples, got complex ones")
    n = len(samples)
    k = np.arange(n // 2 + 1)
    coeffs = np.fft.rfft(samples) * np.exp(-1j * math.pi * k / n) / n
    magnitude = np.abs(coeffs)
    coeffs[magnitude <= KRASNY_EPS * magnitude.max()] = 0.0
    return CoeffVector(coeffs, n)


def synthesize(coeffs: CoeffVector, s: float) -> float:
    """The real series sum_k u_k exp(i 2 k s) over all N modes at one s in
    (0, pi): weight 1 on k = 0 and the even-N Nyquist mode k = N/2, weight
    2 on the real part of each other mode k, which stands for k and -k."""
    k = np.arange(len(coeffs.coeffs), dtype=np.float64)
    weights = np.where((k == 0) | (2.0 * k == coeffs.n), 1.0, 2.0)
    return float(weights @ (np.exp(2j * (s * k)) * coeffs.coeffs).real)

