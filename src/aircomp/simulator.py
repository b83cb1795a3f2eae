"""End-to-end Monte Carlo engine for coded over-the-air aggregation.

A trial quantizes each device's value onto a signed lattice, expands it into
two's-complement bit-planes, and transmits each plane as BPSK on its own
fading subcarrier, where the multiple-access channel sums the planes in the
air.  The receiver detects every per-plane device sum with an affine-MMSE or
lattice-ML detector and applies the linear decoder to recover the sum of
quantized values.  An analog amplitude-modulation baseline and an
offset-binary + ML baseline ride exactly the same random draws, so scheme
comparisons at a common seed are trial-paired.  Offset binary flips the top
bit of two's complement, which negates the top plane's noiseless Re{y}, and
ML rounding, its silent-device prior and the decoder are symmetric under the
flip (up to ties, of probability 0): the latter baseline is the proposed ML
receiver with its top plane's noise negated, and runs as that.  So the
proposed LMMSE receiver's gain over it is the detector's, not the code's.
"""

from __future__ import annotations

import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from . import codec, transceiver
from .channel import (
    ChannelParams,
    MimoParams,
    NetworkRealization,
    _spans,
    draw_channel_batch,
)
from .codec import QuantizerSpec
from .selection import greedy_select_batch
from .transceiver import (
    allocate_power,
    lmmse_coefficients,
    ml_lattice_estimate,
    reallocate_power,
)

# Trials per vectorized batch; also the RNG sub-stream granularity, so two
# runs agree trial-for-trial only when they share the same batch layout.
BATCH = 8192

CODED_SCHEMES = ("proposed", "binary_ml")
SCHEMES = CODED_SCHEMES + ("analog",)
SOURCES = ("uniform", "gaussian")
POWER_MODES = ("uniform", "geometric")
DETECTORS = ("lmmse", "ml")
UNREAD_FIELDS = {  # per scheme and per source: the SimConfig fields it never reads
    "analog": ("varpi", "power_mode", "detector", "allow_empty", "reallocate"),
    **dict.fromkeys(CODED_SCHEMES, ("analog_threshold",)),
    "uniform": ("source_std",),
    "gaussian": (),
}


def default_detector(scheme: str) -> str:
    """The detector of a config of this scheme that names none: binary_ml is
    defined with lattice-ML detection, which ``SimConfig.validate`` requires
    of it, and every other scheme takes LMMSE."""
    return "ml" if scheme == "binary_ml" else "lmmse"


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment.

    Defaults describe the reference setup: 20 devices, 8-bit quantization of
    uniform sources on [-1, 1], one subcarrier per bit-plane over a 4-tap
    Rayleigh channel, uniform power split, LMMSE detection.  bit_depth is the
    subcarrier count L of every scheme: coded schemes send one bit-plane per
    subcarrier, and analog repeats its value on the same L subcarriers.
    Powers are in units of a device's budget and values in units of the
    source range, as NMSE depends on neither.
    """

    num_devices: int = 20
    bit_depth: int = 8
    num_taps: int = 4
    source: str = "uniform"
    source_std: float = 1.0 / 3.0  # gaussian only
    scheme: str = "proposed"
    power_mode: str = "uniform"
    varpi: float = 1.0
    detector: str = "lmmse"
    snr_db_grid: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 100_000
    csi_error_radius: float = 0.0
    seed: int = 1
    n_tx: int = 1
    n_rx: int = 1
    analog_threshold: float = 0.1
    reallocate: bool = False
    allow_empty: bool = False

    def __post_init__(self):
        grid = self.snr_db_grid  # any other grid stays as it is, for validate to reject
        if isinstance(grid, (list, tuple)) and all(
            isinstance(x, float) or type(x) is int for x in grid  # a bool's type is bool
        ):
            object.__setattr__(self, "snr_db_grid", tuple(float(x) for x in grid))
        self.validate()

    def validate(self) -> None:
        # first, so that no range check meets a wrong type; a bool, though an int, fits bool alone
        for name, kind in _FIELD_TYPES.items():
            value, kind = getattr(self, name), typing.get_origin(kind) or kind
            accepted = (int, float) if kind is float else kind
            if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool) or (
                kind is tuple and not all(isinstance(x, float) for x in value)
            ):
                raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        # the first range, as it is also the subcarrier count; the quantizer's own bound
        if not 1 <= self.bit_depth <= codec.MAX_BIT_DEPTH:
            raise ValueError(
                f"bit_depth must be >= 1 and <= {codec.MAX_BIT_DEPTH}, got {self.bit_depth}"
            )
        self.channel_params()  # num_devices, num_taps, csi_error_radius
        self.mimo()  # n_tx, n_rx
        if self.num_devices * 2**self.bit_depth > 2**63:
            # the int64 decoders sum num_devices codewords of bit_depth bits
            raise ValueError(
                "num_devices * 2^bit_depth must not exceed 2^63 (int64 decode), "
                f"got num_devices={self.num_devices}, bit_depth={self.bit_depth}"
            )
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        if not 0 < self.source_std < math.inf:
            raise ValueError(f"source_std must be > 0 and finite, got {self.source_std}")
        # The tally sums fourth powers of errors from about a lattice step,
        # 2^(1-b) s, to the largest sum, K s, for a gaussian source's scale s.
        # Each stays in [2^-255, 2^255], whose fourth powers are normal floats,
        # with 2^8 to spare for the noise and, at the top, 2^16 for the trials.
        lo, hi = 2.0 ** (self.bit_depth - 248), 2.0**231 / self.num_devices
        if self.source == "gaussian" and not lo <= self.source_std <= hi:
            raise ValueError(
                f"source_std = {self.source_std!r} must lie in [{lo!r}, {hi!r}] "
                f"at num_devices = {self.num_devices} and bit_depth = {self.bit_depth}"
            )
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.power_mode not in POWER_MODES:
            raise ValueError(
                f"power_mode must be one of {POWER_MODES}, got {self.power_mode!r}"
            )
        # rejects varpi < 1; called through its module, as perfbench times
        # calls of this module's allocate_power as sweep work
        transceiver.allocate_power(self.bit_depth, self.varpi)
        if self.power_mode == "uniform" and self.varpi != 1.0:
            raise ValueError("varpi > 1 requires power_mode = geometric")
        if self.detector not in DETECTORS:
            raise ValueError(
                f"detector must be one of {DETECTORS}, got {self.detector!r}"
            )
        if default_detector(self.scheme) == "ml" != self.detector:
            raise ValueError(
                f"scheme {self.scheme} is defined with lattice-ML detection; set detector = ml"
            )
        if len(self.snr_db_grid) == 0:
            raise ValueError("snr_db_grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # every noise power x is a normal float, and so is its product with
        # up to K^2 / 2, with 2^16 to spare for the gains.  The scan's
        # x / (2 n^2 p) exceeds the float range, and reads +inf, only where
        # p < 2^-17 / (K n)^2, a prefix whose selection gain is below
        # 1 / (4 M) for M the largest float; the budgets sum to 1, and the
        # smallest is 1 / L or, over L <= 48 planes, above 2^-1010
        tiny, top = sys.float_info.min, sys.float_info.max / 2.0**16 / self.num_devices**2
        for snr_db in self.snr_db_grid:
            try:
                sigma2 = self.sigma2(snr_db)
            except (OverflowError, ZeroDivisionError):
                sigma2 = math.nan
            if not tiny <= sigma2 <= top:
                raise ValueError(
                    f"snr_db_grid entry {snr_db} must be finite and give a noise power "
                    f"1 / (10^(snr_db/10) L) in [{tiny!r}, {top!r}] at "
                    f"num_devices = {self.num_devices}"
                )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.analog_threshold >= 0:
            raise ValueError("analog_threshold must be >= 0")
        for name in UNREAD_FIELDS[self.scheme] + UNREAD_FIELDS[self.source]:
            if getattr(self, name) != getattr(SimConfig, name):  # its default
                raise ValueError(f"{self.scheme} on {self.source} sources never reads {name}")

    def quantizer(self) -> QuantizerSpec:
        return QuantizerSpec(self.bit_depth)

    def sigma2(self, snr_db: float) -> float:
        """Per-subcarrier noise power for a given SNR, defined as the total
        power budget, 1, over the aggregate noise: SNR = 1 / (sigma^2 L)."""
        return 1.0 / (10.0 ** (snr_db / 10.0) * self.bit_depth)

    def budgets(self) -> np.ndarray:
        return allocate_power(self.bit_depth, self.varpi)

    def mimo(self) -> MimoParams:
        return MimoParams(n_tx=self.n_tx, n_rx=self.n_rx)

    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            num_devices=self.num_devices,
            num_subcarriers=self.bit_depth,
            num_taps=self.num_taps,
            csi_error_radius=self.csi_error_radius,
        )


_FIELD_TYPES = typing.get_type_hints(SimConfig)  # field -> type; cli parses config text by it
_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string",
    tuple: "a sequence of numbers",
}


@dataclass
class TrialRecord:
    """Everything observable from one end-to-end trial."""

    s_true: float
    s_quant: float
    s_hat: float
    sources: np.ndarray  # (K,) raw device values
    lattice: np.ndarray | None  # (K,) quantized integers; None for analog
    active_counts: np.ndarray  # (L,) devices transmitting per subcarrier
    scalings: np.ndarray  # (L,) common received power p per subcarrier
    bit_sums: np.ndarray  # (L,) true bit-position sums (NaN for analog)
    estimates: np.ndarray  # (L,) detector outputs (analog: per-subcarrier sums)
    received: np.ndarray  # (L,) real part of the channel outputs, Re{y}
    active: np.ndarray  # (K, L) transmission mask
    squared_error_total: float
    squared_error_quantization: float
    squared_error_transmission: float


@dataclass
class SweepPoint:
    """One grid point.  runtime is an equal share of its draw group's wall
    time (``_sweep_group``), not its own cost; the CSV holds neither it nor mse_*."""

    scheme: str
    snr_db: float
    nmse: float
    stderr: float
    mean_active: float
    mean_p: float
    trials: int
    seed: int
    runtime: float
    mse_total: float
    mse_quantization: float
    mse_transmission: float


@dataclass
class SweepResult:
    config: SimConfig
    points: list[SweepPoint]


def _draw_sources(config: SimConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if config.source == "uniform":
        return rng.uniform(-1.0, 1.0, size=(n, config.num_devices))
    return config.source_std * rng.standard_normal((n, config.num_devices))


def _received_sum(residual, active, p, weights) -> np.ndarray:
    """Re{sum_k sqrt(p) (h_k / h_est_k) weights_k} over the active devices.

    Each active device inverts its estimated channel and sends its weight
    (a BPSK symbol or an analog amplitude); the air applies the true channel,
    which leaves the residual Re{h_k / h_est_k} on the real part.  A device
    whose estimate is zero never adds anything: it caps p at zero.

    Device-major: residual, active and weights are (K, T, L) or broadcast to
    it, p is (T, L).  The terms form one contiguous (K, T, L) array, whose sum
    over axis 0 adds the devices in index order, in runs of T * L elements;
    ``_front`` counts instead for coded schemes at exact CSI.
    """
    terms = np.ascontiguousarray(np.where(active, residual, 0.0))
    terms *= np.sqrt(p)
    terms *= weights
    return terms.sum(axis=0)


def _front_key(config: SimConfig) -> tuple:
    """Every field besides the noise power that changes a front end (``_front``)
    on a draw: draw-group members with equal keys form the same noiseless Re{y}
    (analog: at every noise power).  The budgets and the bit depth follow from
    these and the draw key, whose channel holds L = bit_depth subcarriers; the
    fields a scheme never reads hold defaults.  Both coded schemes share one."""
    c = config
    return (c.scheme == "analog", c.varpi, c.allow_empty, c.reallocate, c.analog_threshold)


def _weakest(gains, active) -> np.ndarray:
    """The common received power p per (trial, subcarrier) of device-major
    (K, T, L) gains and mask: the weakest active gain, 0 if none.  A minimum
    is exact in any order."""
    p = np.where(active, gains, np.inf).min(axis=0)
    return np.where(np.isfinite(p), p, 0.0)


def _select(config, a2, sigma2s):
    """(n_active, p, active mask) on device-major (K, T, L) estimated powers
    a2, shaped (G, T, L), (G, T, L) and (G, K, T, L): one entry per noise
    power for coded schemes, one for analog, whose threshold ignores it.
    The transposes to and from ``greedy_select_batch``'s (T, K, L) shapes
    live here alone; on a contiguous a2, neither copies."""
    budgets = config.budgets()
    if config.scheme == "analog":
        act = a2 >= config.analog_threshold
        return act.sum(axis=0)[None], _weakest(a2 * budgets, act)[None], act[None]
    gains = (a2 * budgets).transpose(1, 0, 2)
    n, p, act = greedy_select_batch(gains, sigma2s, config.allow_empty)
    act = act.transpose(0, 2, 1, 3)
    if config.reallocate:
        for j, act_j in enumerate(act):
            p[j] = _weakest(a2 * reallocate_power(budgets, act_j), act_j)
    return n, p, act


def _front(config, batch, selections, keep=("s_hat",)) -> tuple[dict, list[dict]]:
    """One pass of a front key over a batch (sources, power_est, residual,
    noise; leading axis = trials): its transmitters and channel, and inside
    the same chunk loop the receiver (``_back``) of every point it serves.

    selections lists (noise power, points) pairs.  Coded schemes select once
    per noise power; analog takes one selection, as its threshold ignores the
    noise power.  A point is a (config, sigma2) back end at its own noise
    power; config is any config of the points' front key (``_front_key``).

    Coded schemes quantize and encode each device's value in two's complement
    (binary_ml too: ``_back`` negates its top plane's noise) and select the
    active devices per subcarrier (``_select``); the analog baseline repeats
    the amplitude-scaled value on all subcarriers.  The (T, K, L) steps run over
    chunks of trials (``_spans`` of K L elements per trial): per chunk, the
    quantization, the encoding and the gain sort run once, and the scan, the
    reallocation and the noiseless sum once per selection, after which each of
    the selection's points runs its back end on the chunk's rows: it adds its
    noise and detects and decodes them.  Every back-end step works row by
    row, so the chunking changes no output.  Only p, s_true, s_quant and what
    keep names outlive their chunk; no (T, K, L) mask is kept.

    At radius 0 a coded front end counts: its noiseless Re{y} is sqrt(p) (2r -
    n), r the active devices sending a 1; analog and drawn residuals take
    ``_received_sum``.  Within a chunk everything is device-major, (K, chunk,
    L): the bits, one copy of the estimated powers and of a drawn residual,
    and the masks, so reductions over devices read axis 0 of contiguous
    arrays.  The copies pay for themselves: on strided views, a large_k
    batch's superpositions took 150 ms rather than 120 ms and an analog front
    end about 30 % longer (2-core Xeon VM).

    Returns (shared, fronts).  shared holds the batch's s_true and s_quant,
    and its lattice where keep names "lattice" (else, and for analog, None).
    fronts[j] holds selection j's whole-batch p, its exact count of active
    (trial, device, subcarrier) slots, "n_total", and "points": per point,
    the whole-batch outputs that keep names (any of n_active, p, noiseless,
    received, estimates and s_hat).
    """
    sources, power_est, residual, noise = batch
    T, K, L = power_est.shape
    coded = config.scheme in CODED_SCHEMES
    spec = config.quantizer()
    s_true = sources.sum(axis=1)
    shared = {"s_true": s_true, "s_quant": np.empty(T) if coded else s_true.copy()}
    shared["lattice"] = np.empty((T, K), np.int64) if coded and "lattice" in keep else None
    sigma2s = [sigma2 for sigma2, _ in selections]
    p = np.empty((len(sigma2s), T, L))
    fronts = [
        {"p": p[j], "n_total": 0, "points": [{} for _ in points]}
        for j, (_, points) in enumerate(selections)
    ]
    for s, e in _spans(T, K * L):
        if coded:
            lattice = codec.quantize(sources[s:e], spec, clamp=config.source == "gaussian")
            shared["s_quant"][s:e] = lattice.sum(axis=1) / spec.zeta
            if shared["lattice"] is not None:
                shared["lattice"][s:e] = lattice
            w = codec.encode(np.ascontiguousarray(lattice.T), L) == 1
        else:
            w = sources.T[:, s:e, None]
        a2 = np.ascontiguousarray(power_est[s:e].transpose(1, 0, 2))
        ratio = residual[s:e].transpose(1, 0, 2)
        counted = coded and not ratio.strides[0]
        if ratio.strides[0]:  # a drawn residual, not the radius-0 broadcast
            ratio = np.ascontiguousarray(ratio)
            w = 2.0 * w - 1.0 if coded else w  # coded: +-1, once per chunk
        n, pc, act = _select(config, a2, sigma2s)
        p[:, s:e] = pc
        for j, ((_, points), front) in enumerate(zip(selections, fronts)):
            if counted:  # exact CSI: every active term is +-sqrt(p)
                r = np.count_nonzero(act[j] & w, axis=0)
                noiseless = np.sqrt(pc[j]) * (2 * r - n[j])
            else:
                noiseless = _received_sum(ratio, act[j], pc[j], w)
            rows = {"n_active": n[j], "p": pc[j], "noiseless": noiseless}
            front["n_total"] += int(n[j].sum())
            for (point_config, sigma2), kept in zip(points, front["points"]):
                out = _back(point_config, rows, noise[s:e], sigma2)
                for key in out.keys() & keep:
                    if key not in kept:
                        kept[key] = np.empty((T,) + out[key].shape[1:], out[key].dtype)
                    kept[key][s:e] = out[key]
        del w, a2, ratio, n, pc, act  # freed before the next chunk allocates
    return shared, fronts


def _back(config, front, noise, sigma2) -> dict:
    """The receiver on the rows of a front end (n_active, p and the noiseless
    Re{y} of one selection, a chunk of ``_front``'s): its received Re{y} is
    the noiseless one plus the unit-power noise scaled to sigma2, which the
    config's detector and decoder turn into estimates and s_hat.  The analog
    baseline averages the per-subcarrier sums (silent devices are compensated
    by the symmetric-source mean, zero).  Reads the front end without
    changing it.  binary_ml is this two's-complement ML receiver with its top
    plane's noise negated (see the module docstring); ``run_trial`` reports
    that plane in offset binary."""
    K = config.num_devices
    p, n_act = front["p"], front["n_active"]
    y = front["noiseless"]
    received = y + np.sqrt(sigma2 / 2.0) * noise
    if config.scheme == "binary_ml":
        received[:, -1] = y[:, -1] - np.sqrt(sigma2 / 2.0) * noise[:, -1]
    front = front | {"received": received}
    if config.scheme == "analog":
        scaled = np.zeros_like(p)
        np.divide(received, np.sqrt(p), out=scaled, where=p > 0)
        return front | {"s_hat": scaled.mean(axis=1), "estimates": scaled}
    if config.detector == "ml":
        silent = K - n_act.astype(np.float64)  # prior mean 1/2 per silent device
        r_hat = ml_lattice_estimate(received, p, n_act) + silent / 2.0
    else:
        lam, mu = lmmse_coefficients(p, n_act, K, sigma2)
        r_hat = lam * received + mu
    s_hat = codec.decode(r_hat, config.quantizer().zeta)
    return front | {"s_hat": s_hat, "estimates": r_hat}


def run_trial(
    config: SimConfig, realization: NetworkRealization, rng: np.random.Generator
) -> TrialRecord:
    """One end-to-end trial on a fixed network realization.

    The rng supplies sources and receiver noise (in that order); the channel
    and its noise power come from the realization, so noiseless operation is
    expressed by a realization with noise_power = 0.
    """
    K, L = config.num_devices, config.bit_depth
    if realization.power_est.shape != (K, L):
        raise ValueError(
            f"realization shape {realization.power_est.shape} does not match config "
            f"({K} devices, {L} subcarriers)"
        )
    sources = _draw_sources(config, 1, rng)
    noise = rng.standard_normal((1, L))  # the real part: the receiver reads Re{y} only
    batch = (sources, realization.power_est[None], realization.residual[None], noise)
    sigma2 = realization.noise_power
    keep = ("lattice", "n_active", "p", "received", "estimates", "s_hat")
    shared, (front,) = _front(config, batch, [(sigma2, [(config, sigma2)])], keep)
    (out,) = front["points"]
    active = _select(config, realization.power_est[:, None], [sigma2])[2][0, :, 0]
    if shared["lattice"] is None:  # analog: no bit-planes
        lattice, bit_sums = None, np.full(L, np.nan)
    else:
        lattice = shared["lattice"][0]
        bit_sums = codec.encode(lattice, L).sum(axis=0).astype(np.float64)
    estimates, received = out["estimates"][0], out["received"][0]
    if config.scheme == "binary_ml":  # its top plane in offset binary; 0.0 - x keeps +0.0
        bit_sums[-1] = K - bit_sums[-1]
        estimates[-1] = K - estimates[-1]
        received[-1] = 0.0 - received[-1]
    s_true = float(shared["s_true"][0])
    s_quant = float(shared["s_quant"][0])
    s_hat = float(out["s_hat"][0])
    return TrialRecord(
        s_true=s_true,
        s_quant=s_quant,
        s_hat=s_hat,
        sources=sources[0],
        lattice=lattice,
        active_counts=out["n_active"][0],
        scalings=out["p"][0],
        bit_sums=bit_sums,
        estimates=estimates,
        received=received,
        active=active,
        squared_error_total=(s_hat - s_true) ** 2,
        squared_error_quantization=(s_quant - s_true) ** 2,
        squared_error_transmission=(s_hat - s_quant) ** 2,
    )


def _draw_key(config: SimConfig) -> tuple:
    """Every field that changes what a batch draws: the source's and the
    channel draw's own parameters.  Configs with equal keys draw identical
    sources, channels and noise in each batch; the SNR grid is not part of it
    (see ``_batches``)."""
    c = config
    return (c.seed, c.trials, c.source, c.source_std, c.channel_params(), c.mimo())


def _batches(config: SimConfig):
    """Yield (sources, power_est, residual, noise) per batch of a sweep.

    Every grid point reads the same batches.  Batch j uses the stream seeded
    by (seed, 0, j) and draws, in this order, the sources, the channel
    delays, the channel taps chunk by chunk, the CSI perturbations, and the
    real part of the unit-power receiver noise, the only part the receiver
    reads.  The arrays are read-only, so a pipeline evaluated on them cannot
    change what the next one reads.
    """
    L = config.bit_depth
    params = config.channel_params()
    mimo = config.mimo()
    for batch_index, done in enumerate(range(0, config.trials, BATCH)):
        n = min(BATCH, config.trials - done)
        rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, 0, batch_index))
        )
        sources = _draw_sources(config, n, rng)
        power_est, residual = draw_channel_batch(params, n, rng, mimo=mimo)
        noise = rng.standard_normal((n, L))
        for array in (sources, power_est, residual, noise):
            array.flags.writeable = False
        yield sources, power_est, residual, noise
        del sources, power_est, residual, noise, array  # freed before the next draw


@dataclass
class _Tally:
    """Running sums of one (config, grid index) point over its batches.

    Each batch adds whole-batch sums: NumPy's pairwise sums over the s_hat of
    the point and the p of its selection, and the exact count of active
    slots, so a sum's bits do not depend on the chunks that formed its terms.
    """

    total: float = 0.0
    total_sq: float = 0.0
    quant: float = 0.0
    tx: float = 0.0
    s2: float = 0.0
    n: float = 0.0
    p: float = 0.0

    def add(self, shared: dict, front: dict, s_hat: np.ndarray) -> None:
        """One batch: ``_front``'s shared values, the point's selection and
        its whole-batch s_hat."""
        s_true, s_quant = shared["s_true"], shared["s_quant"]
        sq = (s_hat - s_true) ** 2
        self.total += sq.sum()
        self.total_sq += (sq**2).sum()
        self.quant += ((s_quant - s_true) ** 2).sum()
        self.tx += ((s_hat - s_quant) ** 2).sum()
        self.s2 += (s_true**2).sum()
        self.n += front["n_total"]
        self.p += front["p"].sum()

    def point(self, config: SimConfig, snr_db: float, runtime: float) -> SweepPoint:
        T = config.trials
        mean_sq = self.total / T
        var_sq = max(self.total_sq / T - mean_sq**2, 0.0)
        return SweepPoint(
            scheme=config.scheme,
            snr_db=snr_db,
            nmse=self.total / self.s2,
            stderr=math.sqrt(var_sq / T) / (self.s2 / T),
            mean_active=self.n / (T * config.bit_depth),
            mean_p=self.p / (T * config.bit_depth),
            trials=T,
            seed=config.seed,
            runtime=runtime,
            mse_total=mean_sq,
            mse_quantization=self.quant / T,
            mse_transmission=self.tx / T,
        )


def _passes(selections: dict, budget: int, L: int) -> list[list[tuple]]:
    """Pack a front key's selections (noise power -> points), in order, into
    passes whose whole-batch state holds at most budget elements per trial: L
    for each selection's p and 1 for each point's s_hat.  A selection that
    does not fit the current pass starts a new one; one whose points alone
    exceed the budget is split across passes, and every pass holds at least
    one point."""
    passes: list[list[tuple]] = []
    room = 0
    for sigma2, points in selections.items():
        while points:
            if not passes or (passes[-1] and L + len(points) > room):
                passes.append([])
                room = budget
            take = max(1, room - L)
            served, points = points[:take], points[take:]
            passes[-1].append((sigma2, served))
            room -= L + len(served)
    return passes


def _sweep_group(configs: list[SimConfig]) -> list[SweepResult]:
    """Sweep configs of one draw key, drawing each batch once for all.

    Every (config, grid index) point reads the same batches, one at a time.
    Points with equal front keys (``_front_key``) share a front end: coded
    points at equal noise powers, and all analog points of the key.  Each
    front key's selections go into passes (``_passes``) under a byte budget:
    a pass's whole-batch state, 8 L bytes per trial for each selection's p
    and 8 for each point's s_hat, takes no more than the batch's 8 K L of
    power_est, whatever the grid length; in practice one pass per front key.
    Per batch, each pass is one ``_front`` call, which runs the back ends of
    its points on each of its chunks, each adding the chunk's noise at its
    own noise power; the tallies then add the pass's whole-batch sums, and
    it is freed.  Every point's runtime is an equal share of the group's
    wall time over its batches, so the runtimes of the group add up to it.
    """
    tallies: dict[tuple[int, int], _Tally] = {}
    # front key -> selection (the noise power; None for analog) -> the
    # (member, grid index, noise power) points it serves
    sharers: dict[tuple, dict[float | None, list[tuple[int, int, float]]]] = {}
    for m, config in enumerate(configs):
        selections = sharers.setdefault(_front_key(config), {})
        coded = config.scheme in CODED_SCHEMES
        for i, snr_db in enumerate(config.snr_db_grid):
            tallies[m, i] = _Tally()
            sigma2 = config.sigma2(snr_db)
            selections.setdefault(sigma2 if coded else None, []).append((m, i, sigma2))
    K, L = configs[0].num_devices, configs[0].bit_depth
    passes = []  # (a config of the front key, its selections, their points' tallies)
    for selections in sharers.values():
        for part in _passes(selections, K * L, L):
            points = [point for _, served in part for point in served]
            member = configs[points[0][0]]  # any member with the key forms the front end
            part = [(sigma2, [(configs[m], s) for m, _, s in served]) for sigma2, served in part]
            passes.append((member, part, [tallies[m, i] for m, i, _ in points]))
    t0 = time.perf_counter()
    for batch in _batches(configs[0]):
        for config, selections, users in passes:
            shared, fronts = _front(config, batch, selections)
            outs = [(front, out) for front in fronts for out in front["points"]]
            for (front, out), tally in zip(outs, users):
                tally.add(shared, front, out["s_hat"])
            del shared, fronts, outs, front, out  # freed before the next pass or draw allocates
        del batch  # freed before the next draw allocates
    runtime = (time.perf_counter() - t0) / len(tallies)
    return [
        SweepResult(
            c, [tallies[m, i].point(c, snr, runtime) for i, snr in enumerate(c.snr_db_grid)]
        )
        for m, c in enumerate(configs)
    ]


class SharedSweeps:
    """Sweeps of several configs that draw each batch once per draw key.

    Configs with equal draw keys (``_draw_key``) form a group.  The first
    ``sweep(config, shared=self)`` of a group evaluates every grid point of
    every member on one draw per batch, running each distinct selection
    (``_front_key`` and, for coded schemes, noise power; one per analog key)
    once per batch, in one pass per front key, with each point's back end
    adding its own receiver noise inside the pass's chunk loop, and keeps the
    other members' results for their own calls; each result's CSV matches a
    separate sweep byte for byte.  One batch and one pass are held at a time,
    whatever the group size and grid length.
    """

    def __init__(self, configs: Iterable[SimConfig]):
        self._groups: dict[tuple, list[SimConfig]] = {}
        for config in configs:
            group = self._groups.setdefault(_draw_key(config), [])
            if config not in group:
                group.append(config)
        self._results: dict[SimConfig, SweepResult] = {}

    def _sweep(self, config: SimConfig) -> SweepResult:
        if config not in self._results:
            group = self._groups.get(_draw_key(config), [])
            if config not in group:
                raise ValueError("config is not one of the configs of this SharedSweeps")
            self._results.update(zip(group, _sweep_group(group)))
        return self._results[config]


def sweep(config: SimConfig, *, shared: SharedSweeps | None = None) -> SweepResult:
    """Monte Carlo NMSE-versus-SNR sweep with fresh channels every trial.

    Randomness: batch j of every grid point uses the stream seeded by the
    tuple (seed, 0, j) and draws sources, channel delays and taps, CSI
    perturbations, and receiver noise in a fixed order with fixed shapes
    (see ``_batches``).  The points of a curve share these draws (common
    random numbers), and so do configs with the same draw key wherever their
    pipelines coincide, which makes SNR, scheme and detector comparisons
    trial-paired; passing ``shared`` evaluates the configs of one
    ``SharedSweeps`` on a single draw per batch, with the same results.  The
    reported stderr is the standard error of the mean squared error divided
    by the mean squared true sum.  It leaves out that denominator's own
    fluctuation, which points sharing their draws share, but which dominates
    at the quantization floor: there the NMSE's full standard error is about
    5 times stderr (README, output CSVs).
    """
    if shared is None:
        shared = SharedSweeps([config])
    return shared._sweep(config)


CSV_COLUMNS = (
    "scheme",
    "snr_db",
    "nmse",
    "stderr",
    "mean_active",
    "mean_p",
    "trials",
    "seed",
)


def sweep_to_csv(result: SweepResult, path) -> None:
    """Write a sweep as delimited text.

    Line 1 is a '# '-prefixed JSON metadata block holding the full config,
    then a header row and one row per grid point.  Floats are written with
    repr so identical runs produce byte-identical files.
    """
    meta = json.dumps(asdict(result.config), sort_keys=True)
    lines = ["# " + meta, ",".join(CSV_COLUMNS)]
    for pt in result.points:
        values = (getattr(pt, name) for name in CSV_COLUMNS)
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def quantization_nmse_floor(config: SimConfig) -> float:
    """NMSE remaining when transmission is error-free, from the quantizer
    geometry alone (no Monte Carlo), for a coded scheme on uniform sources.

    The decoded value then equals the sum of the K quantized values exactly,
    so the error is a sum of independent per-device truncation errors
    e = floor(zeta s)/zeta - s and

        NMSE = (K E[e^2] + K (K-1) E[e]^2) / (K E[s^2]).
    """
    if config.scheme not in CODED_SCHEMES or config.source != "uniform":
        got = f"{config.scheme} on {config.source}"
        raise ValueError(f"the floor is for coded schemes on uniform sources, got {got}")
    K = config.num_devices
    mean_e, second_e = _uniform_truncation_moments(config.quantizer())
    return (K * second_e + K * (K - 1) * mean_e**2) / (K * (1.0 / 3.0))


def _uniform_truncation_moments(spec: QuantizerSpec) -> tuple[float, float]:
    """Exact E[e], E[e^2] of the truncation error for s ~ U[-1, 1].

    In lattice units u = zeta*s ~ U[-c, c] with c = zeta: each of the
    2*floor(c) full unit cells contributes mean -1/2 and second moment 1/3,
    and the two partial edge cells of width f = c - floor(c) complete the
    mean to exactly -1/2 while contributing the fractional terms below.
    """
    c = spec.zeta
    n_full = math.floor(c)
    f = c - n_full
    mean_lattice = -0.5
    second_lattice = (2 * n_full + f**3 + 1 - (1 - f) ** 3) / (6 * c)
    return mean_lattice / spec.zeta, second_lattice / spec.zeta**2
