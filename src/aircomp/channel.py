"""Multipath fading channels, CSI error models, and the superposition MAC.

Per device and subcarrier the channel is a sum of M Rayleigh taps with
integer delays, h_{k,l} = sum_m g_m^k exp(j 2 pi tau_m^k l / L); one tap with
all delays zero degenerates to flat fading.  Antenna arrays are supported by
drawing an (n_rx, n_tx) tap matrix per path and scalarizing each subcarrier
with unit-norm beamformers, which preserves the single-antenna structure of
everything downstream.  (1,1) short-circuits to exactly the scalar draw: same
random stream, same bits.

The common receive beam is the principal left singular vector of the device
sum, found as the top eigenvector of its Gram matrix: in closed form at
n_rx = 2, by batched eigh otherwise (`_receive_beam`), with no SVD.  The
effective gains agree with an SVD beam to about 1e-14 relative, not bit for
bit, so multi-antenna sweep CSVs differ in their last digits from those of
an SVD draw; single-antenna draws are unaffected.

Estimated CSI is modelled multiplicatively, h_est = h * (1 + delta) with
delta uniform on a complex disk; transmitters invert h_est, the medium applies
the true h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def exponential_tap_profile(num_taps: int, decay: float) -> np.ndarray:
    """Tap power profile q_m proportional to exp(-decay*m), normalized to 1."""
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    if decay < 0:
        raise ValueError("decay must be >= 0")
    q = np.exp(-decay * np.arange(num_taps, dtype=np.float64))
    return q / q.sum()


@dataclass
class ChannelParams:
    """Static description of the network channel model."""

    num_devices: int
    num_subcarriers: int
    num_taps: int = 4
    tap_profile: np.ndarray | None = None  # None -> uniform 1/M
    noise_power: float = 1.0  # sigma^2 per subcarrier, complex total
    csi_error_radius: float = 0.0

    def __post_init__(self):
        if self.num_devices < 1 or self.num_subcarriers < 1 or self.num_taps < 1:
            raise ValueError("num_devices, num_subcarriers, num_taps must be >= 1")
        if not self.noise_power > 0:
            raise ValueError(f"noise_power must be > 0, got {self.noise_power}")
        if not 0 <= self.csi_error_radius < 1:
            # radius >= 1 could place h_est at 0, breaking inversion
            raise ValueError("csi_error_radius must lie in [0, 1)")
        if self.tap_profile is None:
            profile = np.full(self.num_taps, 1.0 / self.num_taps)
        else:
            profile = np.asarray(self.tap_profile, dtype=np.float64)
            if profile.shape != (self.num_taps,) or np.any(profile <= 0):
                raise ValueError("tap_profile needs num_taps positive entries")
            if abs(profile.sum() - 1.0) > 1e-9:
                raise ValueError("tap_profile must sum to 1")
        self.tap_profile = profile


@dataclass
class NetworkRealization:
    """One draw of the K x L channel: true h, estimated h_est, noise power."""

    h: np.ndarray
    h_est: np.ndarray
    noise_power: float

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        self.h_est = np.asarray(self.h_est, dtype=np.complex128)
        if self.h.shape != self.h_est.shape or self.h.ndim != 2:
            raise ValueError("h and h_est must be matching (K, L) arrays")
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")

    @property
    def num_devices(self) -> int:
        return self.h.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class MimoParams:
    """Antenna counts; (1,1) reduces every operation to the scalar path."""

    n_tx: int = 1
    n_rx: int = 1

    def __post_init__(self):
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("antenna counts must be >= 1")


def sample_disk(radius: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples on the complex disk of the given radius (|z| < radius)."""
    u = rng.random((2,) + tuple(shape))
    return _disk(radius, u[0], u[1])


def _disk(radius: float, u_abs: np.ndarray, u_arg: np.ndarray) -> np.ndarray:
    # the point of the disk that the uniforms (u_abs, u_arg) in [0, 1) select
    return radius * np.sqrt(u_abs) * np.exp(2j * np.pi * u_arg)


def complex_noise(shape, power: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise, total variance `power`."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(power / 2.0)


def _phase_table(num_subcarriers: int) -> np.ndarray:
    # W[d, l] = exp(j 2 pi d l / L); delays are integers mod L so this is exhaustive
    l = np.arange(num_subcarriers)
    return np.exp(2j * np.pi * np.outer(l, l) / num_subcarriers)


# Byte budget for the gathered phase tensor W[delays] of one chunk of trials.
# The chunk size depends on (K, M, L) only, so it bounds memory at large K
# without touching the random stream.
_GATHER_BYTES = 8 << 20

# Byte budget for one chunk of h in the CSI-error step.  Each chunk of trials
# evaluates h * (1.0 + delta), the expression of a whole-batch draw, and holds
# at least half this budget.  NumPy reuses a temporary of 256 KiB or more as
# the output of that product, which fixes the operand order of its fused
# multiply-add; chunks of at least 512 KiB, or one chunk for small batches,
# take the same path as the whole batch, so their bits match it.
_CSI_BYTES = 1 << 20


def _spans(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges covering n items, each of at least
    `size` items (one range when n < 2 * size): the last absorbs the rest."""
    count = max(1, n // size)
    return [(i * size, n if i == count - 1 else (i + 1) * size) for i in range(count)]


def _receive_beam(S: np.ndarray) -> np.ndarray:
    """Unit principal left singular vector of each matrix S[..., :, :].

    S is (..., n_rx, n_tx); the result is (..., n_rx), the top eigenvector of
    the Gram matrix S S^H, defined up to a phase.  At n_rx = 2 it is written
    in closed form: with S S^H = [[p, r], [r*, q]] and
    disc = sqrt((p - q)^2 / 4 + |r|^2), the vector is
    (|p - q|/2 + disc, r*) when p >= q and (r, |p - q|/2 + disc) otherwise,
    sums of non-negative terms that cannot cancel.  It vanishes only when
    S S^H is a multiple of the identity (S = 0 included); every unit vector
    is then optimal and e_1 is returned.  Other n_rx use batched eigh.
    """
    if S.shape[-2] != 2:
        _, vectors = np.linalg.eigh(S @ S.conj().swapaxes(-1, -2))
        return vectors[..., -1]
    a, b = S[..., 0, :], S[..., 1, :]
    p = (a.real**2 + a.imag**2).sum(axis=-1)
    q = (b.real**2 + b.imag**2).sum(axis=-1)
    # np.multiply, not *: the operator may reuse the temporary b.conj() as
    # its output, which swaps the operands and makes the bits depend on size
    r = np.multiply(a, b.conj()).sum(axis=-1)
    r2 = r.real**2 + r.imag**2
    half = 0.5 * np.abs(p - q)
    top = half + np.sqrt(half**2 + r2)
    first = p >= q
    w = np.stack([np.where(first, top, r), np.where(first, r.conj(), top)], axis=-1)
    norm = np.sqrt(top**2 + r2)
    zero = norm == 0
    return np.where(zero[..., None], (1.0, 0.0), w / np.where(zero, 1.0, norm)[..., None])


def draw_channel_batch(
    params: ChannelParams,
    n_trials: int,
    rng: np.random.Generator,
    mimo: MimoParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_trials independent network realizations, vectorized.

    Returns (h, h_est), both complex (n_trials, K, L).  Draw order is fixed
    (taps, delays, CSI error) so runs that differ only in downstream choices
    consume identical randomness and stay trial-paired.  For antenna arrays
    the per-subcarrier matrix channel is scalarized with a matched receive/
    transmit beamformer pair before CSI error is applied: the receive beam w
    comes from `_receive_beam` (closed form at n_rx = 2, eigh otherwise) and
    each gain is ||w^H H_k||, which does not depend on the phase of w.  These
    gains match an SVD beam to about 1e-14 relative; the SISO and (1,1) draw
    is bit for bit the scalar one.

    The arithmetic runs over chunks of trials: the tap sum over chunks whose
    gathered phases W[delays] stay within about 8 MiB, the CSI error over
    chunks of about 1 MiB of h.  The random draws keep the order of a
    whole-batch draw and every element sees the same operations, so chunking
    does not change a bit.  With csi_error_radius = 0 the CSI error is
    exactly zero: h_est is h itself, returned read-only so neither can be
    changed through the other, and the disk uniforms are still consumed, so
    whatever is drawn next from `rng` is the same as at any other radius.
    """
    mimo = mimo or MimoParams()
    K, L, M = params.num_devices, params.num_subcarriers, params.num_taps
    n_rx, n_tx = mimo.n_rx, mimo.n_tx
    shape = (n_trials, K, M, n_rx, n_tx)
    scale = np.sqrt(params.tap_profile / 2.0)[None, :, None, None]
    taps_re = rng.standard_normal(shape)
    taps_im = rng.standard_normal(shape)
    delays = rng.integers(0, L, size=(n_trials, K, M))
    delays[..., 0] = 0  # first path always at zero delay

    W = _phase_table(L)
    h = np.empty((n_trials, K, L), dtype=np.complex128)
    chunk = max(1, _GATHER_BYTES // (K * M * L * W.itemsize))
    for s in range(0, n_trials, chunk):
        e = min(s + chunk, n_trials)
        taps = (taps_re[s:e] + 1j * taps_im[s:e]) * scale
        # H[t,k,l] = sum_m taps[t,k,m] * W[delay, l], an (n_rx, n_tx) matrix
        H = np.einsum("tkmrc,tkml->tklrc", taps, W[delays[s:e]])
        if n_rx == 1 and n_tx == 1:
            h[s:e] = H[..., 0, 0]
        else:
            # receive beam: principal left singular vector of the device sum;
            # transmit beams: matched to w^H H_k, giving ||w^H H_k|| per device.
            # The products take views, never a temporary that NumPy could
            # reuse as their output, so their bits do not depend on the chunk.
            w = _receive_beam(H.sum(axis=1)).conj()[:, None, :, :, None]
            projected = w[..., 0, :] * H[..., 0, :]
            for r in range(1, n_rx):
                projected += w[..., r, :] * H[..., r, :]
            h[s:e] = np.sqrt((projected.real**2 + projected.imag**2).sum(axis=-1))
        del taps, H  # release this chunk's arrays before the next one allocates

    # the disk uniforms: the moduli of the whole batch, then its angles
    radius = params.csi_error_radius
    spans = _spans(n_trials, max(1, _CSI_BYTES // (K * L * h.itemsize)))
    if radius == 0:
        for s, e in spans:
            rng.random((2, e - s, K, L))  # the uniforms a nonzero radius uses
        h.flags.writeable = False
        return h, h
    u_abs = rng.random(h.shape)
    h_est = np.empty_like(h)
    for s, e in spans:
        delta = _disk(radius, u_abs[s:e], rng.random((e - s, K, L)))
        h_est[s:e] = h[s:e] * (1.0 + delta)
    return h, h_est


def draw_channel(
    params: ChannelParams, seed: int, mimo: MimoParams | None = None
) -> NetworkRealization:
    """Draw a single realization, deterministic in the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h, h_est = draw_channel_batch(params, 1, rng, mimo)
    return NetworkRealization(h[0], h_est[0], params.noise_power)


def mac_superpose(
    symbols: np.ndarray,
    weights: np.ndarray,
    noise_power: float,
    rng: np.random.Generator,
) -> complex:
    """One subcarrier of the superposition MAC: y = sum_k w_k t_k + n.

    `symbols` are the per-device real transmit symbols, `weights` the combined
    channel/precoder coefficients h_k * rho_k (zero for silent devices).
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.complex128)
    if symbols.shape != weights.shape:
        raise ValueError("symbols and weights must have matching shapes")
    noise = complex_noise((), noise_power, rng)
    return complex(np.sum(weights * symbols) + noise)


def scalarize_mimo(H: np.ndarray, w: np.ndarray, f: np.ndarray) -> complex:
    """Effective scalar channel w^H H f for unit-norm beamformers."""
    H = np.asarray(H, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    if H.shape != (w.shape[0], f.shape[0]):
        raise ValueError("H must be (len(w), len(f))")
    for name, vec in (("w", w), ("f", f)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
            raise ValueError(f"{name} must have unit norm")
    return complex(np.vdot(w, H @ f))


def matched_beamformers(
    h_stack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matched beamformer pair for one subcarrier shared by K devices.

    h_stack is (K, n_rx, n_tx).  Returns (w, F, h_eff): the common receive
    beam w (principal left singular vector of sum_k H_k), per-device transmit
    beams F[k] matched to w^H H_k, and the effective scalar channels
    h_eff[k] = w^H H_k F[k] = ||w^H H_k|| >= 0.  At (1,1) this is exactly
    w = f = 1 and h_eff = H, no arithmetic applied.
    """
    h_stack = np.asarray(h_stack, dtype=np.complex128)
    if h_stack.ndim != 3:
        raise ValueError("h_stack must be (K, n_rx, n_tx)")
    K, n_rx, n_tx = h_stack.shape
    if n_rx == 1 and n_tx == 1:
        w = np.ones(1, dtype=np.complex128)
        F = np.ones((K, 1), dtype=np.complex128)
        return w, F, h_stack[:, 0, 0]
    w = _receive_beam(h_stack.sum(axis=0))
    projected = h_stack.conj().transpose(0, 2, 1) @ w  # (w^H H_k)^H per device
    norms = np.linalg.norm(projected, axis=1)
    F = np.ones((K, n_tx), dtype=np.complex128) / np.sqrt(n_tx)
    nz = norms > 0
    F[nz] = projected[nz] / norms[nz, None]
    h_eff = np.einsum("r,krc,kc->k", w.conj(), h_stack, F)
    return w, F, h_eff
