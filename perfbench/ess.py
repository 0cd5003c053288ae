"""Effective sample size by Geyer's initial monotone sequence (Geyer 1992,
"Practical Markov chain Monte Carlo", Statistical Science 7(4))."""

from __future__ import annotations

import math

import numpy as np


def geyer_ess(chain) -> float:
    """ESS of a scalar chain: n / tau with tau = -1 + 2 * sum_k Gamma_k.

    Gamma_k = rho_{2k} + rho_{2k+1} are the sums of consecutive autocorrelation
    pairs, truncated before the first non-positive pair and forced to be
    non-increasing.  A constant chain has one distinct state, so it counts as
    one effective sample.  tau is floored at 1/log10(n), which caps the ESS of
    an antithetic chain at n log10(n), as Stan does.
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n == 0 or not np.all(np.isfinite(x)):
        raise ValueError("ESS needs a non-empty chain of finite values")
    if np.ptp(x) == 0.0:
        return 1.0
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    rho = acov / acov[0]
    pairs = n // 2
    gamma = rho[0:2 * pairs:2] + rho[1:2 * pairs:2]
    nonpos = np.flatnonzero(gamma <= 0.0)
    gamma = np.minimum.accumulate(gamma[:nonpos[0] if nonpos.size else pairs])
    tau = max(-1.0 + 2.0 * float(gamma.sum()), 1.0 / math.log10(max(n, 10)))
    return n / tau
