"""Per-subcarrier transmit/receive processing for bit-plane superposition.

Active devices invert their (estimated) channel so BPSK bit symbols arrive
phase-aligned at a common amplitude sqrt(p); the real part of the received
sum is then an affine function of the bit-position sum plus Gaussian noise.
The detector is the linear MMSE estimate of that sum under the symmetric
Bernoulli prior, with a closed-form residual MSE used both for evaluation and
as the device-selection objective.  An integer maximum-likelihood detector is
provided as the conventional baseline.
"""

from __future__ import annotations

import numpy as np


def allocate_power(num_planes: int, varpi: float = 1.0) -> np.ndarray:
    """Split a device's unit power budget across bit planes with geometric
    ratio varpi.

    varpi = 1 is the uniform split; varpi > 1 weights later (more significant)
    planes, with P_1 = (varpi-1)/(varpi^b - 1) so the budgets sum to 1.
    varpi < 1 would starve the most significant plane and is rejected, and so
    is any split with a budget that is not finite and positive (an infinite
    varpi, or a varpi^b beyond float range).
    """
    if num_planes < 1:
        raise ValueError(f"num_planes must be >= 1, got {num_planes}")
    if not varpi >= 1:  # NaN included
        raise ValueError(f"varpi must be >= 1, got {varpi}")
    if varpi == 1:
        budgets = np.full(num_planes, 1.0 / num_planes)
    else:
        try:
            first = (varpi - 1.0) / (varpi**num_planes - 1.0)
            budgets = first * varpi ** np.arange(num_planes)
        except OverflowError:  # varpi^b beyond float range
            budgets = np.full(num_planes, np.inf)
    if not np.all(np.isfinite(budgets) & (budgets > 0)):
        raise ValueError(
            f"varpi = {varpi} over {num_planes} planes must give finite, positive power budgets"
        )
    return budgets


def reallocate_power(budgets: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Move budget a device cannot spend on truncated subcarriers to its
    active ones, proportionally.

    budgets is the (L,) per-plane budget, active an (..., L) activity mask
    whose leading axes index devices and trials in any order.  Returns
    per-device budgets of the mask's shape; entries on inactive subcarriers
    are zeroed (the device is silent there).
    """
    budgets = np.asarray(budgets, dtype=np.float64)
    active = np.asarray(active, dtype=bool)
    spent = np.where(active, budgets, 0.0)
    base = spent.sum(axis=-1)
    freed = budgets.sum() - base  # the row sum of a full row, the same bits
    scale = np.ones_like(base)
    np.divide(freed, base, out=scale, where=base > 0)
    return spent * (1.0 + scale)[..., None]


def lmmse_coefficients(p, n_active, num_devices, noise_power):
    """Affine-MMSE detector r_hat = lam*Re{y} + mu for the bit-position sum.

    lam = sqrt(p)*n / (2 p n + sigma^2), mu = K/2.  Vectorized; lam -> 0 as
    p -> 0 or noise dominates, collapsing the estimate onto the prior mean.
    """
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n_active, dtype=np.float64)
    denom = 2.0 * p * n + noise_power
    lam = np.zeros(denom.shape, dtype=np.float64)
    np.divide(np.sqrt(p) * n, denom, out=lam, where=denom > 0)
    mu = num_devices / 2.0
    if lam.ndim == 0:
        return float(lam), mu
    return lam, mu


def ml_lattice_estimate(re_y, p, n_active):
    """Integer ML estimate of the *active* bit sum on the BPSK lattice.

    The noiseless lattice points are 2 sqrt(p) r - sqrt(p) n for
    r in {0..n}; nearest-point rounding with ties resolved downward.
    Degenerate p*n = 0 returns 0 (every point coincides; lowest index wins):
    p = 0 is masked, and n = 0 clips to [0, 0] (a zero of either sign).
    """
    re_y = np.asarray(re_y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n_active, dtype=np.float64)
    amp = 2.0 * np.sqrt(p)
    z = np.zeros(np.broadcast_shapes(re_y.shape, p.shape, n.shape), np.float64)
    np.divide(re_y + np.sqrt(p) * n, amp, out=z, where=amp > 0)
    r = np.ceil(z - 0.5)  # round half down: lower candidate wins ties
    return np.clip(r, 0.0, n)


def mse_closed_form(p, n_active, num_devices, noise_power: float):
    """Residual MSE of the affine-MMSE detector for the bit-position sum:

        e = (2 p n (K - n) + K sigma^2) / (8 p n + 4 sigma^2)

    with n active devices out of K.  p = 0 (or n = 0) degenerates to the
    prior variance K/4, which sigma^2 > 0 gives by the divide and which
    fills the 0/0 of p n = 0 at sigma^2 = 0.  Vectorized over broadcastable
    p >= 0 and n_active, at a scalar noise power.
    """
    K = num_devices
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n_active, dtype=np.float64)
    num = p * (2.0 * n * (K - n)) + K * noise_power
    denom = p * (8.0 * n) + 4.0 * noise_power
    mse = np.full(denom.shape, K / 4.0)
    np.divide(num, denom, out=mse, where=denom > 0)
    if mse.ndim == 0:
        return float(mse)
    return mse
