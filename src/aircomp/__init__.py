"""Digital over-the-air aggregation of quantized values on fading channels.

Devices quantize signed values onto a two's-complement lattice, transmit one
bit-plane per subcarrier with channel-inverting power control, and a fusion
receiver detects each per-plane sum and linearly decodes the sum of values.
The package provides the codec, channel models, transceiver math, device
selection, a Monte Carlo simulator, and a command-line interface.
"""

from .channel import (
    ChannelParams,
    MimoParams,
    NetworkRealization,
    draw_channel,
    draw_channel_batch,
    exponential_tap_profile,
)
from .codec import (
    QuantizerSpec,
    decode,
    decode_offset_binary,
    encode,
    encode_offset_binary,
    format_codeword,
    parse_codeword,
    quantize,
)
from .selection import (
    SelectionInstance,
    SelectionResult,
    brute_force_select,
    greedy_select,
    greedy_select_batch,
    optimal_scaling,
)
from .simulator import (
    SharedSweeps,
    SimConfig,
    SweepPoint,
    SweepResult,
    TrialRecord,
    nmse,
    quantization_nmse_floor,
    run_trial,
    subcarrier_error_correlation,
    sweep,
    sweep_to_csv,
)
from .transceiver import (
    SubcarrierPlan,
    allocate_power,
    lmmse_coefficients,
    lmmse_detect,
    ml_detect,
    mse_closed_form,
    preprocess,
    reallocate_power,
    transmit_power_check,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "MimoParams",
    "NetworkRealization",
    "QuantizerSpec",
    "SelectionInstance",
    "SelectionResult",
    "SharedSweeps",
    "SimConfig",
    "SubcarrierPlan",
    "SweepPoint",
    "SweepResult",
    "TrialRecord",
    "allocate_power",
    "brute_force_select",
    "decode",
    "decode_offset_binary",
    "draw_channel",
    "draw_channel_batch",
    "encode",
    "encode_offset_binary",
    "exponential_tap_profile",
    "format_codeword",
    "greedy_select",
    "greedy_select_batch",
    "lmmse_coefficients",
    "lmmse_detect",
    "ml_detect",
    "mse_closed_form",
    "nmse",
    "optimal_scaling",
    "parse_codeword",
    "preprocess",
    "quantization_nmse_floor",
    "quantize",
    "reallocate_power",
    "run_trial",
    "subcarrier_error_correlation",
    "sweep",
    "sweep_to_csv",
    "transmit_power_check",
    "__version__",
]
