"""End-to-end Monte Carlo engine for coded over-the-air aggregation.

A trial quantizes each device's value onto a signed lattice, expands it into
two's-complement bit-planes, and transmits each plane as BPSK on its own
fading subcarrier, where the multiple-access channel sums the planes in the
air.  The receiver detects every per-plane device sum with an affine-MMSE or
lattice-ML detector and applies the linear decoder to recover the sum of
quantized values.  An analog amplitude-modulation baseline and an
offset-binary + ML baseline ride exactly the same random draws, so scheme
comparisons at a common seed are trial-paired.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

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


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment.

    Defaults describe the reference setup: 20 devices, 8-bit quantization of
    uniform sources on [-1, 1], one subcarrier per bit-plane over a 4-tap
    Rayleigh channel, uniform power split, LMMSE detection.
    """

    num_devices: int = 20
    bit_depth: int = 8
    num_subcarriers: int = 8
    num_taps: int = 4
    source: str = "uniform"
    s_max: float = 1.0
    source_std: float | None = None  # gaussian only; None -> s_max / 3
    clamp: bool | None = None  # None -> clamp gaussian sources only
    scheme: str = "proposed"
    power_mode: str = "uniform"
    varpi: float = 1.0
    detector: str = "lmmse"
    snr_db_grid: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 100_000
    csi_error_radius: float = 0.0
    p_max: float = 1.0
    seed: int = 1
    n_tx: int = 1
    n_rx: int = 1
    analog_threshold: float = 0.1
    reallocate: bool = False
    round_estimates: bool = False
    allow_empty: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "snr_db_grid", tuple(float(x) for x in self.snr_db_grid)
        )
        self.validate()

    def validate(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.bit_depth < 1:
            raise ValueError("bit_depth must be >= 1")
        if self.bit_depth > 63 or self.num_devices * 2**self.bit_depth > 2**63:
            # the int64 decoders sum num_devices codewords of bit_depth bits
            raise ValueError(
                "num_devices * 2^bit_depth must not exceed 2^63 (int64 decode), "
                f"got num_devices={self.num_devices}, bit_depth={self.bit_depth}"
            )
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        if self.num_taps < 1:
            raise ValueError("num_taps must be >= 1")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        if not self.s_max > 0:
            raise ValueError("s_max must be > 0")
        try:
            self.quantizer()
        except ValueError as exc:  # name the key: the quantizer calls it b
            raise ValueError(f"bit_depth = {self.bit_depth}: {exc}") from None
        if self.source_std is not None and not self.source_std > 0:
            raise ValueError("source_std must be > 0")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.power_mode not in POWER_MODES:
            raise ValueError(
                f"power_mode must be one of {POWER_MODES}, got {self.power_mode!r}"
            )
        # rejects p_max <= 0 and varpi < 1; called through its module, as
        # perfbench times calls of this module's allocate_power as sweep work
        transceiver.allocate_power(self.p_max, self.num_subcarriers, self.varpi)
        if self.power_mode == "uniform" and self.varpi != 1.0:
            raise ValueError("varpi > 1 requires power_mode = geometric")
        if self.detector not in DETECTORS:
            raise ValueError(
                f"detector must be one of {DETECTORS}, got {self.detector!r}"
            )
        if self.scheme == "binary_ml" and self.detector != "ml":
            raise ValueError(
                "scheme binary_ml is defined with lattice-ML detection; set detector = ml"
            )
        if self.scheme == "analog" and self.power_mode != "uniform":
            raise ValueError(
                "scheme analog repeats one symbol per subcarrier and needs "
                "power_mode = uniform"
            )
        if self.scheme in CODED_SCHEMES and self.num_subcarriers != self.bit_depth:
            raise ValueError(
                "coded transmission sends one bit-plane per subcarrier: "
                "num_subcarriers must equal bit_depth"
            )
        if len(self.snr_db_grid) == 0:
            raise ValueError("snr_db_grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.csi_error_radius < 1.0:
            raise ValueError("csi_error_radius must lie in [0, 1)")
        for snr_db in self.snr_db_grid:
            try:
                noise_ok = 0.0 < self.sigma2(snr_db) < math.inf
            except (OverflowError, ZeroDivisionError):
                noise_ok = False
            if not noise_ok:
                raise ValueError(
                    f"snr_db_grid entry {snr_db} must be finite and give a "
                    "positive, finite noise power p_max / (10^(snr_db/10) L)"
                )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("n_tx and n_rx must be >= 1")
        if not self.analog_threshold >= 0:
            raise ValueError("analog_threshold must be >= 0")

    @property
    def effective_source_std(self) -> float:
        return self.source_std if self.source_std is not None else self.s_max / 3.0

    @property
    def effective_clamp(self) -> bool:
        return self.clamp if self.clamp is not None else self.source == "gaussian"

    def quantizer(self) -> QuantizerSpec:
        return QuantizerSpec(self.bit_depth, self.s_max)

    def sigma2(self, snr_db: float) -> float:
        """Per-subcarrier noise power for a given SNR, defined as the total
        power budget over the aggregate noise: SNR = p_max / (sigma^2 L)."""
        return self.p_max / (10.0 ** (snr_db / 10.0) * self.num_subcarriers)

    def budgets(self) -> np.ndarray:
        return allocate_power(self.p_max, self.num_subcarriers, self.varpi)

    def mimo(self) -> MimoParams:
        return MimoParams(n_tx=self.n_tx, n_rx=self.n_rx)

    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            num_devices=self.num_devices,
            num_subcarriers=self.num_subcarriers,
            num_taps=self.num_taps,
            csi_error_radius=self.csi_error_radius,
        )


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
        return rng.uniform(-config.s_max, config.s_max, size=(n, config.num_devices))
    return config.effective_source_std * rng.standard_normal((n, config.num_devices))


# Byte budget for one chunk of the estimated power in _front: every step is
# independent per trial, so the chunk bounds the (T, K, L) temporaries and
# keeps them in cache without changing a bit.
_CHUNK_BYTES = 1 << 19


def _received_sum(residual, active, p, weights) -> np.ndarray:
    """Re{sum_k sqrt(p) (h_k / h_est_k) weights_k} over the active devices.

    Each active device inverts its estimated channel and sends its weight
    (a BPSK symbol or an analog amplitude); the air applies the true channel,
    which leaves the residual Re{h_k / h_est_k} on the real part.  A device
    whose estimate is zero never adds anything: it caps p at zero.
    """
    ratio = np.where(active, residual, 0.0)
    terms = np.sqrt(p)[:, None, :] * ratio * weights
    # a (K, chunk, L) copy adds the devices in the same order as axis=1 does,
    # so every bit holds, but in runs of chunk * L elements instead of L
    return np.ascontiguousarray(terms.transpose(1, 0, 2)).sum(axis=0)


def _front_key(config: SimConfig, sigma2: float) -> tuple:
    """Every field that changes a front end (``_front``) on a given draw:
    members of a draw group with equal keys at a grid index form the same
    Re{y} and differ at most in their back ends (``_back``).  The budgets
    depend on p_max, varpi and num_subcarriers only, and a coded bit depth
    equals num_subcarriers, which the draw key holds."""
    if config.scheme == "analog":
        return (config.scheme, config.p_max, sigma2, config.analog_threshold)
    options = (config.effective_clamp, config.allow_empty, config.reallocate)
    return (config.scheme, config.p_max, config.varpi, sigma2, options)


def _front(config, spec, budgets, sources, power_est, residual, noise, sigma2) -> dict:
    """One config's physical layer on a batch (leading axis = trials).

    Coded schemes quantize and encode each device's value and select the
    active devices per subcarrier; the analog baseline repeats the
    amplitude-scaled value on all subcarriers, with every device whose
    estimated gain clears the threshold inverting its channel.  The (T, K, L)
    steps run over chunks of trials of about 512 KiB of power_est and write
    their per-trial results, up to the received sum Re{y}, into whole-batch
    arrays, so every result is that of a whole-batch evaluation.
    """
    T, K, L = power_est.shape
    coded = config.scheme in CODED_SCHEMES
    bit_sums = np.full((T, L), np.nan)  # NaN for analog: no bit-planes
    if coded:
        v = codec.quantize(sources, spec, clamp=config.effective_clamp)
        binary = config.scheme == "binary_ml"
        encode = codec.encode_offset_binary if binary else codec.encode
    else:
        u = sources / config.s_max
        budget = config.p_max / L
    n_act = np.empty((T, L), dtype=np.intp)
    p = np.empty((T, L))
    received = np.empty((T, L))
    active = np.empty((T, K, L), dtype=bool)
    noise_scale = np.sqrt(sigma2 / 2.0)
    for s, e in _spans(T, max(1, _CHUNK_BYTES // (K * L * power_est.itemsize))):
        a2 = power_est[s:e]
        if coded:
            bits = encode(v[s:e], L)
            bit_sums[s:e] = np.einsum("tkl->tl", bits)  # int64: exact in any order
            n, pc, act = greedy_select_batch(a2 * budgets, sigma2, config.allow_empty)
            if config.reallocate:
                per_device = reallocate_power(budgets, act)
                regained = np.where(act, a2 * per_device, np.inf).min(axis=1)
                pc = np.where(n > 0, regained, 0.0)
            weights = 2 * bits - 1
        else:
            act = a2 >= config.analog_threshold
            n = act.sum(axis=1)
            pc = np.where(act, a2 * budget, np.inf).min(axis=1)
            pc = np.where(np.isfinite(pc), pc, 0.0)
            weights = u[s:e, :, None]
        n_act[s:e], p[s:e], active[s:e] = n, pc, act
        received[s:e] = _received_sum(residual[s:e], act, pc, weights)
        received[s:e] += noise_scale * noise[s:e].real

    s_true = sources.sum(axis=1)
    return {
        "s_true": s_true,
        "s_quant": v.sum(axis=1) / spec.zeta if coded else s_true.copy(),
        "lattice": v if coded else None,
        "bit_sums": bit_sums,
        "n_active": n_act,
        "p": p,
        "received": received,
        "active": active,
    }


def _back(config, spec, front, sigma2) -> dict:
    """Detection and decoding of a front end's Re{y}: the config's detector,
    round_estimates and decoder.  The analog baseline averages the
    per-subcarrier sums (silent devices are compensated by the
    symmetric-source mean, zero).  Reads the front end without changing it."""
    K = config.num_devices
    p, n_act, received = front["p"], front["n_active"], front["received"]
    if config.scheme == "analog":
        scaled = np.zeros_like(p)
        np.divide(received, np.sqrt(p), out=scaled, where=p > 0)
        estimates = config.s_max * scaled
        return front | {"s_hat": estimates.mean(axis=1), "estimates": estimates}
    if config.detector == "ml":
        silent = K - n_act.astype(np.float64)  # prior mean 1/2 per silent device
        r_hat = ml_lattice_estimate(received, p, n_act) + silent / 2.0
    else:
        lam, mu = lmmse_coefficients(p, n_act, K, sigma2)
        r_hat = lam * received + mu
    if config.round_estimates:
        r_hat = np.clip(np.rint(r_hat), 0.0, float(K))
    if config.scheme == "binary_ml":
        s_hat = codec.decode_offset_binary(r_hat, spec.zeta, K)
    else:
        s_hat = codec.decode(r_hat, spec.zeta)
    return front | {"s_hat": s_hat, "estimates": r_hat}


def _simulate(config, spec, budgets, sources, power_est, residual, noise, sigma2) -> dict:
    """One config's whole pipeline on a batch: its back end on its front end."""
    front = _front(config, spec, budgets, sources, power_est, residual, noise, sigma2)
    return _back(config, spec, front, sigma2)


def run_trial(
    config: SimConfig, realization: NetworkRealization, rng: np.random.Generator
) -> TrialRecord:
    """One end-to-end trial on a fixed network realization.

    The rng supplies sources and receiver noise (in that order); the channel
    and its noise power come from the realization, so noiseless operation is
    expressed by a realization with noise_power = 0.
    """
    K, L = config.num_devices, config.num_subcarriers
    if realization.power_est.shape != (K, L):
        raise ValueError(
            f"realization shape {realization.power_est.shape} does not match config "
            f"({K} devices, {L} subcarriers)"
        )
    spec = config.quantizer()
    budgets = config.budgets()
    sources = _draw_sources(config, 1, rng)
    noise = rng.standard_normal((1, L)) + 1j * rng.standard_normal((1, L))
    out = _simulate(
        config,
        spec,
        budgets,
        sources,
        realization.power_est[None],
        realization.residual[None],
        noise,
        realization.noise_power,
    )
    s_true = float(out["s_true"][0])
    s_quant = float(out["s_quant"][0])
    s_hat = float(out["s_hat"][0])
    return TrialRecord(
        s_true=s_true,
        s_quant=s_quant,
        s_hat=s_hat,
        sources=sources[0],
        lattice=None if out["lattice"] is None else out["lattice"][0],
        active_counts=out["n_active"][0],
        scalings=out["p"][0],
        bit_sums=out["bit_sums"][0],
        estimates=out["estimates"][0],
        received=out["received"][0],
        active=out["active"][0],
        squared_error_total=(s_hat - s_true) ** 2,
        squared_error_quantization=(s_quant - s_true) ** 2,
        squared_error_transmission=(s_hat - s_quant) ** 2,
    )


def nmse(records: Iterable[TrialRecord]) -> float:
    """Ratio of summed squared decoding errors to summed squared true sums."""
    records = list(records)
    if not records:
        raise ValueError("need at least one trial record")
    den = sum(r.s_true**2 for r in records)
    if den == 0.0:
        raise ValueError("all true sums are zero; NMSE is undefined")
    return sum(r.squared_error_total for r in records) / den


def _draw_key(config: SimConfig) -> tuple:
    """Every field that changes what a batch draws.  Configs with equal keys
    draw identical sources, channels and noise at each (grid index, batch);
    the SNR is not part of it (see ``_batches``)."""
    std = config.effective_source_std if config.source == "gaussian" else None
    return (
        config.seed,
        config.trials,
        config.num_devices,
        config.num_subcarriers,
        config.num_taps,
        config.source,
        config.s_max,
        std,
        config.csi_error_radius,
        config.n_tx,
        config.n_rx,
    )


def _batches(config: SimConfig, grid_index: int):
    """Yield (sources, power_est, residual, noise) per batch of a grid point.

    Batch j uses the stream seeded by (seed, grid_index, j) and draws, in
    this order, the sources, the channel taps and delays with their CSI
    perturbations, and the receiver noise.  The arrays are read-only, so a
    pipeline evaluated on them cannot change what the next one reads.
    """
    L = config.num_subcarriers
    # the noise is drawn at unit power and each pipeline scales it
    params = config.channel_params()
    mimo = config.mimo()
    for batch_index, done in enumerate(range(0, config.trials, BATCH)):
        n = min(BATCH, config.trials - done)
        rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, grid_index, batch_index))
        )
        sources = _draw_sources(config, n, rng)
        power_est, residual = draw_channel_batch(params, n, rng, mimo=mimo)
        noise = rng.standard_normal((n, L)) + 1j * rng.standard_normal((n, L))
        for array in (sources, power_est, residual, noise):
            array.flags.writeable = False
        yield sources, power_est, residual, noise
        del sources, power_est, residual, noise, array  # freed before the next draw


@dataclass
class _Tally:
    """Running sums of one config's grid point over its batches."""

    total: float = 0.0
    total_sq: float = 0.0
    quant: float = 0.0
    tx: float = 0.0
    s2: float = 0.0
    n: float = 0.0
    p: float = 0.0
    busy: float = 0.0  # seconds of this config's back end and front-end share

    def add(self, out: dict) -> None:
        sq = (out["s_hat"] - out["s_true"]) ** 2
        self.total += sq.sum()
        self.total_sq += (sq**2).sum()
        self.quant += ((out["s_quant"] - out["s_true"]) ** 2).sum()
        self.tx += ((out["s_hat"] - out["s_quant"]) ** 2).sum()
        self.s2 += (out["s_true"] ** 2).sum()
        self.n += out["n_active"].sum()
        self.p += out["p"].sum()

    def point(self, config: SimConfig, snr_db: float, runtime: float) -> SweepPoint:
        T = config.trials
        mean_sq = self.total / T
        var_sq = max(self.total_sq / T - mean_sq**2, 0.0)
        return SweepPoint(
            scheme=config.scheme,
            snr_db=snr_db,
            nmse=self.total / self.s2,
            stderr=math.sqrt(var_sq / T) / (self.s2 / T),
            mean_active=self.n / (T * config.num_subcarriers),
            mean_p=self.p / (T * config.num_subcarriers),
            trials=T,
            seed=config.seed,
            runtime=runtime,
            mse_total=mean_sq,
            mse_quantization=self.quant / T,
            mse_transmission=self.tx / T,
        )


def _sweep_group(
    configs: list[SimConfig], progress: Callable[[SweepPoint], None] | None
) -> list[SweepResult]:
    """Sweep configs of one draw key, drawing each batch once for all.

    Grid point i is evaluated for every config whose grid has an entry i, one
    batch at a time: the batch is drawn, then each distinct front end
    (``_front_key``) runs once on it, feeds the back ends of the configs that
    share it and is freed.  A point's runtime is the config's back-end time
    plus equal shares of its front end's time and of the draw time, so the
    runtimes of one grid index add up to its wall time.  progress receives
    configs[0]'s points as they finish.
    """
    specs = [c.quantizer() for c in configs]
    budgets = [c.budgets() for c in configs]
    points: list[list[SweepPoint]] = [[] for _ in configs]
    for i in range(max(len(c.snr_db_grid) for c in configs)):
        members = [m for m, c in enumerate(configs) if i < len(c.snr_db_grid)]
        sigma2 = {m: configs[m].sigma2(configs[m].snr_db_grid[i]) for m in members}
        sharers: dict[tuple, list[int]] = {}
        for m in members:
            sharers.setdefault(_front_key(configs[m], sigma2[m]), []).append(m)
        tallies = {m: _Tally() for m in members}
        t0 = time.perf_counter()
        for batch in _batches(configs[members[0]], i):
            for users in sharers.values():
                t = time.perf_counter()
                f = users[0]
                front = _front(configs[f], specs[f], budgets[f], *batch, sigma2[f])
                share = (time.perf_counter() - t) / len(users)
                for m in users:
                    t = time.perf_counter()
                    # unnamed, the output is freed before the next pipeline or
                    # draw allocates; holding it raised peak memory
                    tallies[m].add(_back(configs[m], specs[m], front, sigma2[m]))
                    tallies[m].busy += share + time.perf_counter() - t
                del front  # freed before the next front end or draw allocates
            del batch  # freed before the next draw allocates
        busy = sum(tally.busy for tally in tallies.values())
        draw_share = (time.perf_counter() - t0 - busy) / len(members)
        for m in members:
            config = configs[m]
            point = tallies[m].point(
                config, config.snr_db_grid[i], tallies[m].busy + draw_share
            )
            points[m].append(point)
            if m == 0 and progress is not None:
                progress(point)
    return [SweepResult(config=c, points=p) for c, p in zip(configs, points)]


class SharedSweeps:
    """Sweeps of several configs that draw each batch once per draw key.

    Configs with equal draw keys (``_draw_key``) form a group.  The first
    ``sweep(config, shared=self)`` of a group evaluates every member on one
    draw per (seed, grid index, batch), running each distinct front end
    (``_front_key``) once per batch, and keeps the other members' results for
    their own calls; each result's CSV matches a separate sweep byte for byte.
    One batch and one front end are held at a time, whatever the group size.
    """

    def __init__(self, configs: Iterable[SimConfig]):
        self._groups: dict[tuple, list[SimConfig]] = {}
        for config in configs:
            group = self._groups.setdefault(_draw_key(config), [])
            if config not in group:
                group.append(config)
        self._results: dict[SimConfig, SweepResult] = {}

    def _sweep(
        self, config: SimConfig, progress: Callable[[SweepPoint], None] | None
    ) -> SweepResult:
        if config in self._results:
            result = self._results[config]
            if progress is not None:
                for point in result.points:
                    progress(point)
            return result
        group = self._groups.get(_draw_key(config), [])
        if config not in group:
            raise ValueError("config is not one of the configs of this SharedSweeps")
        members = [config] + [c for c in group if c != config]
        self._results.update(zip(members, _sweep_group(members, progress)))
        return self._results[config]


def sweep(
    config: SimConfig,
    progress: Callable[[SweepPoint], None] | None = None,
    shared: SharedSweeps | None = None,
) -> SweepResult:
    """Monte Carlo NMSE-versus-SNR sweep with fresh channels every trial.

    Randomness: batch j of grid point i uses the stream seeded by the tuple
    (seed, i, j), and every batch draws sources, channel taps/delays, CSI
    perturbations, and receiver noise in a fixed order with fixed shapes
    (see ``_batches``).  Two configs with the same draw key therefore see
    identical draws wherever their pipelines coincide, which makes scheme
    and detector comparisons trial-paired; passing ``shared`` evaluates the
    configs of one ``SharedSweeps`` on a single draw per batch, with the
    same results.  progress is called with each point in grid order.  The
    reported stderr is the standard error of the mean squared error divided
    by the mean squared true sum (the denominator's own fluctuation is
    second-order and ignored).
    """
    if shared is None:
        shared = SharedSweeps([config])
    return shared._sweep(config, progress)


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


def config_metadata(config: SimConfig) -> str:
    """Machine-readable one-line JSON description of a config."""
    return json.dumps(asdict(config), sort_keys=True)


def sweep_to_csv(result: SweepResult, path) -> None:
    """Write a sweep as delimited text.

    Line 1 is a '# '-prefixed JSON metadata block holding the full config,
    then a header row and one row per grid point.  Floats are written with
    repr so identical runs produce byte-identical files.
    """
    lines = ["# " + config_metadata(result.config), ",".join(CSV_COLUMNS)]
    for pt in result.points:
        lines.append(
            ",".join(
                (
                    pt.scheme,
                    repr(float(pt.snr_db)),
                    repr(float(pt.nmse)),
                    repr(float(pt.stderr)),
                    repr(float(pt.mean_active)),
                    repr(float(pt.mean_p)),
                    str(pt.trials),
                    str(pt.seed),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def quantization_nmse_floor(config: SimConfig) -> float:
    """NMSE remaining when transmission is error-free, from the quantizer
    geometry alone (no Monte Carlo).

    The decoded value then equals the sum of the K quantized values exactly,
    so the error is a sum of independent per-device truncation errors
    e = floor(zeta s)/zeta - s and

        NMSE = (K E[e^2] + K (K-1) E[e]^2) / (K E[s^2]).
    """
    spec = config.quantizer()
    K = config.num_devices
    if config.source == "uniform":
        mean_e, second_e = _uniform_truncation_moments(spec)
        source_power = config.s_max**2 / 3.0
    else:
        if not config.effective_clamp:
            raise ValueError(
                "an unclamped gaussian source can leave the representable "
                "range; no finite quantization floor exists"
            )
        mean_e, second_e = _gaussian_truncation_moments(
            spec, config.effective_source_std
        )
        source_power = config.effective_source_std**2
    return (K * second_e + K * (K - 1) * mean_e**2) / (K * source_power)


def _uniform_truncation_moments(spec: QuantizerSpec) -> tuple[float, float]:
    """Exact E[e], E[e^2] of the truncation error for s ~ U[-s_max, s_max].

    In lattice units u = zeta*s ~ U[-c, c] with c = zeta*s_max: each of the
    2*floor(c) full unit cells contributes mean -1/2 and second moment 1/3,
    and the two partial edge cells of width f = c - floor(c) complete the
    mean to exactly -1/2 while contributing the fractional terms below.
    """
    c = spec.zeta * spec.s_max
    n_full = math.floor(c)
    f = c - n_full
    mean_lattice = -0.5
    second_lattice = (2 * n_full + f**3 + 1 - (1 - f) ** 3) / (6 * c)
    return mean_lattice / spec.zeta, second_lattice / spec.zeta**2


def _gaussian_truncation_moments(spec: QuantizerSpec, std: float) -> tuple[float, float]:
    """E[e], E[e^2] for a clamped gaussian source via per-cell partial moments.

    Cell m holds s in [m/zeta, (m+1)/zeta) and maps to m/zeta; the edge cells
    absorb the clipped tails, so the bottom cell extends to -inf and the top
    cell to +inf.  Within a cell e = m/zeta - s, so the contributions follow
    from the cell's probability mass and first/second partial moments.
    """
    zeta = spec.zeta
    mean_e = 0.0
    second_e = 0.0
    for m in range(spec.lattice_min, spec.lattice_max + 1):
        lo = -math.inf if m == spec.lattice_min else m / zeta
        hi = math.inf if m == spec.lattice_max else (m + 1) / zeta
        prob, m1, m2 = _gaussian_cell_moments(std, lo, hi)
        q = m / zeta
        mean_e += q * prob - m1
        second_e += q**2 * prob - 2.0 * q * m1 + m2
    return mean_e, second_e


def _gaussian_cell_moments(std: float, lo: float, hi: float) -> tuple[float, float, float]:
    """(P, M1, M2): probability and first/second partial moments of
    N(0, std^2) over [lo, hi)."""
    sqrt2 = math.sqrt(2.0)

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / (std * sqrt2)))

    def pdf(x: float) -> float:
        return math.exp(-0.5 * (x / std) ** 2) / (std * math.sqrt(2.0 * math.pi))

    f_lo = 0.0 if math.isinf(lo) else pdf(lo)
    f_hi = 0.0 if math.isinf(hi) else pdf(hi)
    c_lo = 0.0 if lo == -math.inf else cdf(lo)
    c_hi = 1.0 if hi == math.inf else cdf(hi)
    prob = c_hi - c_lo
    m1 = std**2 * (f_lo - f_hi)
    lo_term = 0.0 if math.isinf(lo) else lo * f_lo
    hi_term = 0.0 if math.isinf(hi) else hi * f_hi
    m2 = std**2 * prob + std**2 * (lo_term - hi_term)
    return prob, m1, m2
