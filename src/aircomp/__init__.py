"""Digital over-the-air aggregation of quantized values on fading channels.

Devices quantize signed values onto a two's-complement lattice, transmit one
bit-plane per subcarrier with channel-inverting power control, and a fusion
receiver detects each per-plane sum and linearly decodes the sum of values.
The package provides the codec, channel models, transceiver math, device
selection, a Monte Carlo simulator, and a command-line interface; the names
below are the documented entry points, and everything else is importable
from its submodule.
"""

from .channel import ChannelParams, draw_channel
from .simulator import (
    SharedSweeps,
    SimConfig,
    SweepPoint,
    SweepResult,
    TrialRecord,
    run_trial,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "SharedSweeps",
    "SimConfig",
    "SweepPoint",
    "SweepResult",
    "TrialRecord",
    "draw_channel",
    "run_trial",
    "sweep",
    "__version__",
]
