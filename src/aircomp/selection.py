"""Per-subcarrier device selection under truncated channel inversion.

The common received amplitude on a subcarrier is capped by the weakest
active device, p = min_k |h_k|^2 P_k, so dropping weak devices trades their
bit variance (prior guessing) against a higher amplitude for everyone else.
The closed-form detector MSE makes the trade explicit, and because the
objective only depends on the active set through (min effective gain, size),
some descending-gain prefix is always optimal: the greedy scan over prefixes
finds the global optimum in O(K log K).  A subset-enumeration oracle backs
that claim in tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .transceiver import mse_closed_form


@dataclass
class SelectionInstance:
    """One subcarrier's selection problem: per-device effective gains
    |h_est_k|^2 * P_k and the noise power."""

    effective_gains: np.ndarray
    noise_power: float

    def __post_init__(self):
        self.effective_gains = np.asarray(self.effective_gains, dtype=np.float64)
        if self.effective_gains.ndim != 1 or self.effective_gains.size == 0:
            raise ValueError("effective_gains must be a non-empty 1-D array")
        if np.any(self.effective_gains < 0):
            raise ValueError("effective gains must be >= 0")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be > 0")

    @property
    def num_devices(self) -> int:
        return self.effective_gains.size


class SelectionResult(NamedTuple):
    active: np.ndarray  # sorted device indices
    p: float
    mse: float


def greedy_select(
    instance: SelectionInstance, allow_empty: bool = False
) -> SelectionResult:
    """Optimal active set of one subcarrier: greedy_select_batch on a batch
    of one trial and one subcarrier.

    Prefix n of the devices sorted by effective gain transmits at p = the
    n-th largest gain and costs the closed-form MSE; the first prefix
    attaining the minimum wins, so ties resolve to the smaller set, and
    devices tied at p enter by ascending index.  With allow_empty=True a
    prefix no better than the no-transmission MSE K/4 yields an empty set.
    """
    K, sigma2 = instance.num_devices, instance.noise_power
    gains = instance.effective_gains[None, :, None]
    n, p, active = greedy_select_batch(gains, sigma2, allow_empty)
    n, p = int(n[0, 0]), float(p[0, 0])
    mse = mse_closed_form(p, n, K, sigma2) if n else K / 4.0
    return SelectionResult(np.flatnonzero(active[0, :, 0]), p, mse)


@functools.lru_cache(maxsize=None)
def _subset_table(num_devices: int) -> np.ndarray:
    masks = np.arange(1, 2**num_devices, dtype=np.int64)
    return ((masks[:, None] >> np.arange(num_devices)) & 1).astype(bool)


def brute_force_select(instance: SelectionInstance) -> SelectionResult:
    """Exhaustive subset oracle (K <= 20).  Ties resolve to the smaller set,
    then lexicographically smaller index tuple."""
    K = instance.num_devices
    if K > 20:
        raise ValueError(f"subset enumeration is limited to K <= 20, got {K}")
    g = instance.effective_gains
    members = _subset_table(K)
    p = np.where(members, g, np.inf).min(axis=1)
    sizes = members.sum(axis=1)
    mse = mse_closed_form(p, sizes, K, instance.noise_power)
    best = mse.min()
    candidates = np.flatnonzero(mse == best)
    key = min(
        (int(sizes[c]), tuple(np.flatnonzero(members[c])), int(c)) for c in candidates
    )
    active = np.array(key[1], dtype=np.intp)
    return SelectionResult(active, float(g[active].min()), float(best))


# Byte budget for one chunk of trials' gains in greedy_select_batch.  Every
# step of the scan is independent per (trial, subcarrier), so chunking changes
# no result; it keeps the sort and the MSE temporaries in cache.
_SELECT_BYTES = 1 << 20


def greedy_select_batch(
    effective_gains: np.ndarray, noise_power, allow_empty: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized greedy selection with devices on axis 1.

    effective_gains is (T, K, L); noise_power a scalar or a 1-D array of G
    noise powers.  Returns (n_active, p, active mask), of shapes
    noise_power.shape + (T, L), (T, L) and (T, K, L): the scan of
    greedy_select on every (trial, subcarrier) slice at every noise power.
    The scan runs over chunks of trials whose gains fill about 1 MiB, and
    sorts each chunk once for all noise powers.
    """
    shape = np.shape(noise_power)
    noise_powers = np.asarray(noise_power, dtype=np.float64).reshape(-1).tolist()
    T, K, L = effective_gains.shape
    n = np.empty((len(noise_powers), T, L), dtype=np.intp)
    p = np.empty(n.shape)
    active = np.empty((len(noise_powers), T, K, L), dtype=bool)
    chunk = max(1, _SELECT_BYTES // (K * L * 8))
    for s in range(0, T, chunk):
        e = min(s + chunk, T)
        scans = _greedy_select_chunk(effective_gains[s:e], noise_powers, allow_empty)
        for j, scan in enumerate(scans):
            n[j, s:e], p[j, s:e], active[j, s:e] = scan
    return tuple(a.reshape(shape + a.shape[1:]) for a in (n, p, active))


def _greedy_select_chunk(g_tkl: np.ndarray, noise_powers: list, allow_empty: bool):
    """greedy_select_batch on one chunk of trials: yields (n, p, active) at
    each noise power in turn.

    The scan sorts the gain values along the last axis of a contiguous
    (T, L, K) copy, once for all noise powers; sorted values do not depend on
    how ties are ordered, so no permutation is kept.  The active set is every
    device with gain >= p, except where devices tie at p beyond the n-th
    place: there the tie rule (ascending index among equal gains) keeps the
    lowest indices, as many as the prefix needs.
    """
    K = g_tkl.shape[1]
    g = np.ascontiguousarray(g_tkl.transpose(0, 2, 1))
    sorted_g = np.sort(g, axis=-1)[..., ::-1]
    for noise_power in noise_powers:
        mse = mse_closed_form(sorted_g, np.arange(1, K + 1), K, noise_power)
        i = np.argmin(mse, axis=-1)  # first minimum: smaller set on ties
        n = i + 1
        p = np.take_along_axis(sorted_g, i[..., None], axis=-1)[..., 0]
        active = g_tkl >= p[:, None, :]
        t, l = np.nonzero(active.sum(axis=1) > n)
        if t.size:
            rows = g_tkl[t, :, l]  # (rows, K)
            above = rows > p[t, l][:, None]
            tied = rows == p[t, l][:, None]
            need = n[t, l][:, None] - above.sum(axis=1, keepdims=True)
            active[t, :, l] = above | (tied & (np.cumsum(tied, axis=1) <= need))
        if allow_empty:
            best = np.take_along_axis(mse, i[..., None], axis=-1)[..., 0]
            fallback = best >= K / 4.0
            n = np.where(fallback, 0, n)
            p = np.where(fallback, 0.0, p)
            active &= ~fallback[:, None, :]
        yield n, p, active
