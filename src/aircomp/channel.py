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


# Byte budget for one chunk of the delay-domain taps, an (n_rx n_tx, trials,
# K, L) complex array.  The scatter, the inverse FFT, the beams and the CSI
# error treat each trial on its own, so the chunk size bounds memory without
# changing a bit.
_DRAW_BYTES = 1 << 20


def _spans(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges covering n items, each of at least
    `size` items (one range when n < 2 * size): the last absorbs the rest."""
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


def _matched_gains(H: np.ndarray) -> np.ndarray:
    """The power gains ||w^H H_k||^2 of H, (n_rx, n_tx, trials, K, L) planes.

    The receive beam w is the principal left singular vector of the device
    sum; each device's transmit beam is matched to w^H H_k, and the power of
    their product is summed over the transmit antennas.  The complex products
    take views, never a temporary that NumPy could reuse as their output, so
    their bits do not depend on the number of trials.
    """
    w = _receive_beam(H.sum(axis=3)).conj()[:, :, None, :]
    power = np.zeros(H.shape[2:])
    for c in range(H.shape[1]):
        projected = w[0] * H[0, c]
        for r in range(1, H.shape[0]):
            projected += w[r] * H[r, c]
        power += projected.real**2 + projected.imag**2
    return power


def draw_channel_batch(
    params: ChannelParams,
    n_trials: int,
    rng: np.random.Generator,
    mimo: MimoParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_trials independent network realizations, vectorized.

    Returns (power_est, residual), both float64 (n_trials, K, L): the
    estimated power |h_est|^2 and the residual Re{h / h_est} that channel
    inversion leaves.  Draw order is fixed (taps_re, taps_im, delays, the
    moduli of the CSI error for the whole batch, then its angles chunk by
    chunk) so runs that differ only in downstream choices consume identical
    randomness and stay trial-paired.

    The taps are summed in the delay domain: each tap is added into the bin
    of its delay (taps of one device that share a delay add together), and
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

    The arithmetic runs over chunks of trials of about 1 MiB of delay bins.
    The random draws keep the order of a whole-batch draw and every element
    sees the same operations, so chunking does not change a bit.
    """
    mimo = mimo or MimoParams()
    K, L, M = params.num_devices, params.num_subcarriers, params.num_taps
    n_rx, n_tx = mimo.n_rx, mimo.n_tx
    A = n_rx * n_tx
    shape = (n_trials, K, M, n_rx, n_tx)
    scale = np.sqrt((1.0 / M) / 2.0)
    taps_re = rng.standard_normal(shape)
    taps_im = rng.standard_normal(shape)
    delays = rng.integers(0, L, size=(n_trials, K, M))
    delays[..., 0] = 0  # first path always at zero delay

    power = np.empty((n_trials, K, L))
    spans = _spans(n_trials, max(1, _DRAW_BYTES // (A * K * L * 16)))
    for s, e in spans:
        n = e - s
        taps = ((taps_re[s:e] + 1j * taps_im[s:e]) * scale).reshape(n * K, M, A)
        # x[a, t, k, d]: the taps of antenna pair a that arrive with delay d
        x = np.zeros((A, n * K * L), dtype=np.complex128)
        first_bin = np.arange(0, n * K * L, L)
        for m in range(M):
            x[:, first_bin + delays[s:e, :, m].ravel()] += taps[:, m].T
        x = x.reshape(A, n, K, L)
        if A == 1:
            h = np.fft.ifft(x[0], axis=-1, norm="forward")
            np.square(h.real, out=power[s:e])
            power[s:e] += np.square(h.imag)
        else:
            h = np.fft.ifft(x, axis=-1, norm="forward").reshape(n_rx, n_tx, n, K, L)
            power[s:e] = _matched_gains(h)
        del taps, x, h  # release this chunk's arrays before the next one allocates
    del taps_re, taps_im, delays  # released before the CSI uniforms allocate

    radius = params.csi_error_radius
    if radius == 0:
        for s, e in spans:
            rng.random((2, e - s, K, L))  # the uniforms a nonzero radius uses
        return power, np.broadcast_to(1.0, power.shape)
    # the moduli of the whole batch; each chunk's residual overwrites them
    residual = rng.random(power.shape)
    for s, e in spans:
        rho = radius * np.sqrt(residual[s:e])
        c = rho * np.cos(2.0 * np.pi * rng.random((e - s, K, L)))
        gain = 1.0 + 2.0 * c + np.square(rho)  # |1 + delta|^2
        power[s:e] *= gain
        np.divide(1.0 + c, gain, out=residual[s:e])
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
