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

import numpy as np

from .transceiver import mse_closed_form


@functools.lru_cache(maxsize=None)
def _subset_table(num_devices: int) -> np.ndarray:
    masks = np.arange(1, 2**num_devices, dtype=np.int64)
    return ((masks[:, None] >> np.arange(num_devices)) & 1).astype(bool)


def _check_noise_powers(noise_powers) -> None:
    """Reject a noise power that is negative, NaN or infinite (0 is valid)."""
    bad = [s for s in noise_powers if not 0 <= s < np.inf]
    if bad:
        raise ValueError(f"noise_power must be finite and >= 0, got {bad[0]!r}")


def brute_force_select(effective_gains, noise_power: float):
    """Exhaustive subset oracle for one subcarrier's (K,) effective gains,
    K <= 20: returns (sorted active device indices, p, mse).  Ties resolve to
    the smaller set, then the lexicographically smaller index tuple.  A
    negative, NaN or infinite noise power raises ValueError."""
    _check_noise_powers([noise_power])
    g = np.asarray(effective_gains, dtype=np.float64)
    K = g.size
    if not 1 <= K <= 20:
        raise ValueError(f"subset enumeration is limited to 1 <= K <= 20, got {K}")
    members = _subset_table(K)
    p = np.where(members, g, np.inf).min(axis=1)
    sizes = members.sum(axis=1)
    mse = mse_closed_form(p, sizes, K, noise_power)
    best = mse.min()
    candidates = np.flatnonzero(mse == best)
    key = min(
        (int(sizes[c]), tuple(np.flatnonzero(members[c])), int(c)) for c in candidates
    )
    active = np.array(key[1], dtype=np.intp)
    return active, float(g[active].min()), float(best)


def greedy_select_batch(
    effective_gains: np.ndarray, noise_power, allow_empty: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal active set of every (trial, subcarrier) slice of the (T, K, L)
    effective gains, at a scalar or a 1-D array of G noise powers.

    Returns (n_active, p, active mask), of shapes noise_power.shape + (T, L),
    + (T, L) and + (T, K, L).  Prefix n of the devices sorted by gain
    transmits at p = the n-th largest gain.  At noise power x its closed-form
    MSE is K/4 - n c / (4 (c + x)) with c = 2 n p, so its selection gain
    K/4 - MSE is 1 / (4 h) for the line h = 1/n + x / (2 n^2 p), and the
    scan minimizes h; a prefix with p = +-0 has h = +inf.  The first prefix
    attaining the minimum wins, so ties resolve to the smaller set.  The gains
    are sorted once, along the device axis of one contiguous (K, T, L) copy,
    for all noise powers; sorted values do not depend on how ties are
    ordered, so no permutation is kept.  The slopes 1 / (2 n^2 |p|) are
    formed once on that sort, and each noise power multiplies and adds in one
    reused buffer.  At x = 0, where 0 * inf is NaN, h is 1/n for p != 0.

    The active set is every device with gain >= p, except where the next
    sorted gain ties at p as well: there the lowest indices enter, as many as
    the prefix needs.  With allow_empty=True a subcarrier whose gains are all
    +-0, so that every set scores the no-transmission MSE K/4, gets the empty
    set at every noise power; any gain > 0 beats K/4.  The masks are built
    device-major, on the contiguous copy (no copy when effective_gains is a
    (T, K, L) view of one), and the mask comes back as a (T, K, L)-shaped
    view of that (G, K, T, L) array.  The temporaries are a few copies of the
    gains, so a caller bounds memory by the trials it passes.  A negative,
    NaN or infinite noise power raises ValueError (an O(G) check; the gains
    are not read for it).
    """
    shape = np.shape(noise_power)
    noise_powers = np.asarray(noise_power, dtype=np.float64).reshape(-1).tolist()
    _check_noise_powers(noise_powers)
    T, K, L = effective_gains.shape
    gains = np.ascontiguousarray(effective_gains.transpose(1, 0, 2))  # (K, T, L)
    ascending = np.sort(gains, axis=0)
    sorted_g = ascending[::-1]  # rank-major: sorted_g[n - 1] is prefix n's p
    sizes = np.arange(1.0, K + 1.0).reshape(K, 1, 1)
    slopes = np.abs(sorted_g)  # a -0.0 gain's slope is +inf too
    slopes *= 2.0 * sizes**2
    with np.errstate(divide="ignore"):
        np.divide(1.0, slopes, out=slopes)
    weights = np.arange(K, 0, -1, dtype=np.min_scalar_type(K)).reshape(K, 1, 1)
    h = np.empty(slopes.shape)
    first = np.empty(slopes.shape, dtype=weights.dtype)
    slots = np.arange(T * L).reshape(T, L)  # flat index of each slot's rank 0
    n = np.empty((len(noise_powers), T, L), dtype=np.intp)
    p = np.empty(n.shape)
    active = np.empty((len(noise_powers), K, T, L), dtype=bool)
    for j, sigma2 in enumerate(noise_powers):
        if sigma2 > 0:
            np.multiply(slopes, sigma2, out=h)
            h += 1.0 / sizes
        else:
            h[...] = np.where(sorted_g != 0, 1.0 / sizes, np.inf)
        # the first minimum: weight K + 1 - n, largest at the smallest n
        np.equal(h, np.minimum.reduce(h, axis=0), out=first)
        first *= weights
        rank = np.maximum.reduce(first, axis=0).astype(np.intp) - 1  # p's, in ascending
        n[j] = K - rank
        at = rank * (T * L) + slots  # sorted_g[n - 1] as a flat index into ascending
        ascending.take(at, out=p[j])
        np.greater_equal(gains, p[j], out=active[j])
        # more than n gains reach p exactly where the next sorted one ties
        tie = ascending.take(np.maximum(at - T * L, slots)) == p[j]
        t, l = np.nonzero(tie & (rank > 0))
        if t.size:
            rows = gains[:, t, l]  # (K, rows)
            above = rows > p[j, t, l]
            tied = rows == p[j, t, l]
            need = n[j, t, l] - above.sum(axis=0)
            active[j][:, t, l] = above | (tied & (np.cumsum(tied, axis=0) <= need))
    if allow_empty:
        dead = ~gains.any(axis=0)
        n[:, dead] = 0
        p[:, dead] = 0.0
        active[:, :, dead] = False
    active = active.transpose(0, 2, 1, 3)
    return tuple(a.reshape(shape + a.shape[1:]) for a in (n, p, active))
