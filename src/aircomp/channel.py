"""Multipath fading channels and the CSI error model.

Per device and subcarrier the channel is a sum of M Rayleigh taps with
integer delays, h_{k,l} = sum_m g_m^k exp(j 2 pi tau_m^k l / L), the L-point
inverse DFT of the taps placed in their delay bins.  The draw scatters each
tap into its bin and runs one inverse FFT per device; one tap with all delays
zero degenerates to flat fading.  The FFT rounds differently from a direct
sum over the taps: the gains agree with one to about 1e-14 of their unit
mean power, not bit for bit.

Antenna arrays draw an (n_rx, n_tx) tap matrix per path, kept as one
contiguous plane per antenna pair, and scalarize each subcarrier with
unit-norm beamformers, which preserves the single-antenna structure of
everything downstream.  (1,1) short-circuits to exactly the scalar draw: same
random stream, same bits.  The common receive beam is the principal left
singular vector of the device sum, found as the top eigenvector of its Gram
matrix: in closed form at n_rx = 2, by batched eigh otherwise
(`_receive_beam`), with no SVD.  The effective gains agree with an SVD beam
to about 1e-14 relative, not bit for bit.

Estimated CSI is modelled multiplicatively, h_est = h * (1 + delta) with
delta uniform on a complex disk; transmitters invert h_est, the medium applies
the true h, and the receiver reads only the real part.  So the draw returns
the two real numbers per (device, subcarrier) that the pipeline reads: the
estimated power |h_est|^2, which drives selection and inversion, and the
residual Re{h / h_est} = Re{1 / (1 + delta)}, which inversion leaves on each
symbol.  No complex channel outlives the draw.

A batch draws, in this order, the delays of all its trials, then the taps
one chunk of trials at a time, each tap a (re, im) pair of normals in trial
order, then the CSI error.  So the draw holds the delays, its two outputs and
one chunk, never every tap of the batch, and the chunk size changes no bit.
The chunk's arrays are allocated once per draw, at the largest chunk's
shape, and every chunk works in views of them, so a draw does not make the
allocator fetch fresh pages chunk after chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Static description of the network channel model: K devices, L
    subcarriers, M taps of equal mean power 1/M, and the CSI error radius."""

    num_devices: int
    num_subcarriers: int
    num_taps: int = 4
    csi_error_radius: float = 0.0

    def __post_init__(self):
        for key in ("num_devices", "num_subcarriers", "num_taps"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if not 0 <= self.csi_error_radius < 1:
            # radius >= 1 could place h_est at 0, breaking inversion
            raise ValueError("csi_error_radius must lie in [0, 1)")


@dataclass
class NetworkRealization:
    """One draw of the K x L channel as the receiver sees it: the estimated
    power |h_est|^2, the residual Re{h / h_est} and the noise power."""

    power_est: np.ndarray
    residual: np.ndarray
    noise_power: float

    def __post_init__(self):
        self.power_est = np.asarray(self.power_est, dtype=np.float64)
        self.residual = np.asarray(self.residual, dtype=np.float64)
        if self.power_est.shape != self.residual.shape or self.power_est.ndim != 2:
            raise ValueError("power_est and residual must be matching (K, L) arrays")
        finite = np.isfinite(self.power_est) & np.isfinite(self.residual)
        if not np.all(finite & (self.power_est >= 0)):
            raise ValueError("power_est must be finite and >= 0, and residual finite")
        if not 0 <= self.noise_power < np.inf:  # NaN included
            raise ValueError(f"noise_power must be finite and >= 0, got {self.noise_power}")


@dataclass(frozen=True)
class MimoParams:
    """Antenna counts; (1,1) reduces every operation to the scalar path."""

    n_tx: int = 1
    n_rx: int = 1

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("n_tx and n_rx must be >= 1")


# Elements per chunk of trials: 1 MiB of the draw's complex delay bins, or
# 512 KiB of the front end's estimated powers.  Every chunked step treats
# each trial on its own, so the chunk bounds the temporaries (and keeps them
# in cache) without changing a bit.
_CHUNK_ELEMENTS = 1 << 16


def _spans(n: int, per_trial: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges covering n trials of per_trial
    elements each, in chunks of size = max(1, _CHUNK_ELEMENTS // per_trial)
    trials (one range when n < 2 * size): the last absorbs the rest."""
    size = max(1, _CHUNK_ELEMENTS // per_trial)
    count = max(1, n // size)
    return [(i * size, n if i == count - 1 else (i + 1) * size) for i in range(count)]


def _receive_beam(S: np.ndarray) -> np.ndarray:
    """Unit principal left singular vector of each matrix S[:, :, ...].

    S is (n_rx, n_tx, ...), one contiguous plane per antenna pair; the result
    is (n_rx, ...), the top eigenvector of the Gram matrix S S^H, defined up
    to a phase.  At n_rx = 2 it is written in closed form: with
    S S^H = [[p, r], [r*, q]] and disc = sqrt((p - q)^2 / 4 + |r|^2), the
    vector is (|p - q|/2 + disc, r*) when p >= q and (r, |p - q|/2 + disc)
    otherwise, sums of non-negative terms that cannot cancel.  It vanishes
    only when S S^H is a multiple of the identity (S = 0 included); every unit
    vector is then optimal and e_1 is returned.  Other n_rx use batched eigh.
    """
    if S.shape[0] != 2:
        S = np.moveaxis(S, (0, 1), (-2, -1))
        _, vectors = np.linalg.eigh(S @ S.conj().swapaxes(-1, -2))
        return np.moveaxis(vectors[..., -1], -1, 0)
    a, b = S
    p = (a.real**2 + a.imag**2).sum(axis=0)
    q = (b.real**2 + b.imag**2).sum(axis=0)
    # np.multiply, not *: the operator may reuse the temporary b.conj() as
    # its output, which swaps the operands and makes the bits depend on size
    r = np.multiply(a, b.conj()).sum(axis=0)
    r2 = r.real**2 + r.imag**2
    half = 0.5 * np.abs(p - q)
    top = half + np.sqrt(half**2 + r2)
    first = p >= q
    w = np.stack([np.where(first, top, r), np.where(first, r.conj(), top)])
    norm = np.sqrt(top**2 + r2)
    zero = norm == 0
    e1 = np.array([1.0, 0.0]).reshape((2,) + (1,) * zero.ndim)
    return np.where(zero, e1, w / np.where(zero, 1.0, norm))


def _matched_gains(H: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the power gains ||w^H H_k||^2 of H, (n_rx, n_tx, trials, K, L)
    planes, into out, (trials, K, L), using scratch, (2, trials, K, L)
    complex, for the temporaries.

    The receive beam w is the principal left singular vector of the device
    sum; each device's transmit beam is matched to w^H H_k, and the power of
    their product is summed over the transmit antennas.  The complex products
    take views, never a temporary that NumPy could reuse as their output, so
    their bits do not depend on the number of trials.
    """
    w = _receive_beam(H.sum(axis=3)).conj()[:, :, None, :]
    projected, term = scratch
    out.fill(0.0)
    for c in range(H.shape[1]):
        np.multiply(w[0], H[0, c], out=projected)
        for r in range(1, H.shape[0]):
            projected += np.multiply(w[r], H[r, c], out=term)
        # |projected|^2 into the real and imaginary parts of term
        np.square(projected.real, out=term.real)
        np.square(projected.imag, out=term.imag)
        out += np.add(term.real, term.imag, out=term.real)


def _scatter_taps(taps_re, taps_im, delays, num_subcarriers: int, scale: float, out, bins, weights):
    """The delay-domain channel x[a, t, k, d], (A, trials, K, L) complex: the
    sum of the scaled taps of antenna pair a that arrive with delay d, written
    into out, a contiguous complex array of A * trials * K * L elements.

    taps_re and taps_im are (trials, K, M, n_rx, n_tx) normals, the two
    parts of the draw's (re, im) pairs, and delays is (trials, K, M).  Each
    antenna plane's real and imaginary parts are one np.bincount each, with
    the bins in tap-major order (every device's first path, then every second
    one), so each bin adds its taps in path order, starting from zero: the sum
    that adding path by path gives.  bins (int64) and weights (float64) are
    contiguous buffers of trials * K * M elements that hold the bin of each
    tap and one plane's scaled taps.
    """
    n, K, M = delays.shape
    size = n * K * num_subcarriers
    first_bins = np.arange(0, size, num_subcarriers)[:, None]
    np.add(first_bins, delays.reshape(n * K, M), out=bins.reshape(M, n * K).T)
    x = out.reshape(-1, size)
    for part, taps in ((x.real, taps_re), (x.imag, taps_im)):
        for a, plane in enumerate(taps.reshape(n * K, M, -1).T):  # (A, M, n K) views
            np.multiply(plane, scale, out=weights.reshape(M, n * K))
            part[a] = np.bincount(bins, weights, size)
    return x.reshape(-1, n, K, num_subcarriers)


def draw_channel_batch(
    params: ChannelParams,
    n_trials: int,
    rng: np.random.Generator,
    mimo: MimoParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_trials independent network realizations, vectorized.

    Returns (power_est, residual), both float64 (n_trials, K, L): the
    estimated power |h_est|^2 and the residual Re{h / h_est} that channel
    inversion leaves.  Draw order is fixed (the delays of the whole batch,
    the taps chunk by chunk, each tap a (re, im) pair in trial order, the
    moduli of the CSI error for the whole batch, then its angles chunk by
    chunk) so runs that differ only in downstream choices consume identical
    randomness and stay trial-paired.

    The taps are summed in the delay domain: each tap is added into the bin
    of its delay (taps of one device that share a delay add together, in
    path order), by one np.bincount per antenna pair and real or imaginary
    part (`_scatter_taps`), and
    one inverse FFT per device and antenna pair, np.fft.ifft with
    norm="forward", gives h_{k,l} = sum_d x_d exp(j 2 pi d l / L), whose
    power is re^2 + im^2.  Its rounding differs from a direct sum over the
    taps by up to about 1e-14 of the unit mean power; relative to a gain
    where the taps nearly cancel it can be larger.  For antenna arrays each
    (r, c) plane is a contiguous (trials, K, L) array, and the power is
    ||w^H H_k||^2 (`_matched_gains`), with the receive beam w from
    `_receive_beam`: in closed form at n_rx = 2, by eigh otherwise.  It does
    not depend on the phase of w.

    The CSI error delta = rho exp(j theta) has rho = r sqrt(u_abs) and
    theta = 2 pi u_arg.  With c = rho cos(theta), |1 + delta|^2 = 1 + 2c +
    rho^2 scales the power, and the residual is (1 + c) / |1 + delta|^2;
    the sine is never needed.  With csi_error_radius = 0 the residual is
    exactly 1, a read-only broadcast, and the uniforms are still drawn and
    discarded, so `rng` ends in the state a nonzero radius leaves it in.

    The arithmetic runs over chunks of trials of about 1 MiB of delay bins,
    and each chunk's taps are drawn into one buffer that every chunk reuses,
    so no array of the whole batch's taps exists.  Consecutive draws into
    the buffer give the numbers of one whole-batch draw, and every element
    sees the same operations, so chunking does not change a bit.  Every
    array whose size scales with the chunk (the taps, their bins and scaled
    weights, the delay-domain channel, its IFFT, the |h|^2 and matched-gain
    temporaries and the CSI error's) is allocated once per draw, at the
    largest chunk's shape; each chunk writes into the leading elements with
    out=, in the operations and operand order of fresh arrays, so the
    buffers change no bit either.
    """
    mimo = mimo or MimoParams()
    K, L, M = params.num_devices, params.num_subcarriers, params.num_taps
    n_rx, n_tx = mimo.n_rx, mimo.n_tx
    A = n_rx * n_tx
    scale = np.sqrt((1.0 / M) / 2.0)
    delays = rng.integers(0, L, size=(n_trials, K, M))
    delays[..., 0] = 0  # first path always at zero delay

    power = np.empty((n_trials, K, L))
    spans = _spans(n_trials, A * K * L)
    rows = max(e - s for s, e in spans)
    # the chunk arrays, at the largest chunk's shape; each chunk takes the
    # leading elements of each, so its views are contiguous
    taps = np.empty((rows, K, M, n_rx, n_tx, 2))  # (re, im) per tap
    bins = np.empty(rows * K * M, dtype=np.int64)
    weights = np.empty(rows * K * M)
    x_buffer = np.empty(A * rows * K * L, dtype=np.complex128)
    h_buffer = np.empty_like(x_buffer)
    for s, e in spans:
        n = e - s
        rng.standard_normal(out=taps[:n])
        x = _scatter_taps(
            taps[:n, ..., 0], taps[:n, ..., 1], delays[s:e], L, scale,
            x_buffer[: A * n * K * L], bins[: n * K * M], weights[: n * K * M],
        )
        h = np.fft.ifft(x, axis=-1, norm="forward", out=h_buffer[: x.size].reshape(x.shape))
        # the IFFT has read x, so its buffer holds the |h|^2 temporaries
        if A == 1:
            np.square(h[0].real, out=power[s:e])
            spent = x_buffer.view(np.float64)[: n * K * L].reshape(n, K, L)
            power[s:e] += np.square(h[0].imag, out=spent)
        else:
            scratch = x_buffer[: 2 * n * K * L].reshape(2, n, K, L)
            _matched_gains(h.reshape(n_rx, n_tx, n, K, L), power[s:e], scratch)
    # released before the CSI uniforms allocate
    del taps, delays, bins, weights, x_buffer, h_buffer, x, h

    radius = params.csi_error_radius
    if radius == 0:
        # the uniforms a nonzero radius uses, drawn into one buffer and discarded
        discarded = np.empty(2 * rows * K * L)
        for s, e in spans:
            rng.random(out=discarded[: 2 * (e - s) * K * L])
        return power, np.broadcast_to(1.0, power.shape)
    # the moduli of the whole batch; each chunk's residual overwrites them
    residual = rng.random(power.shape)
    rho_buffer, c_buffer, gain_buffer = np.empty((3, rows * K * L))
    for s, e in spans:
        size = (e - s) * K * L
        rho = np.sqrt(residual[s:e], out=rho_buffer[:size].reshape(e - s, K, L))
        rho *= radius
        angle = rng.random(out=c_buffer[:size].reshape(rho.shape))
        angle *= 2.0 * np.pi
        c = np.multiply(rho, np.cos(angle, out=angle), out=angle)
        gain = np.multiply(2.0, c, out=gain_buffer[:size].reshape(rho.shape))
        gain += 1.0
        gain += np.square(rho, out=rho)  # |1 + delta|^2 = 1 + 2c + rho^2
        power[s:e] *= gain
        c += 1.0
        np.divide(c, gain, out=residual[s:e])
    return power, residual


def draw_channel(
    params: ChannelParams,
    seed: int,
    noise_power: float,
    mimo: MimoParams | None = None,
) -> NetworkRealization:
    """Draw a single realization, deterministic in the seed, with the given
    receiver noise power (0 for noiseless operation)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    power_est, residual = draw_channel_batch(params, 1, rng, mimo)
    return NetworkRealization(power_est[0], residual[0], noise_power)
