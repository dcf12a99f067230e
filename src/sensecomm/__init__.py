"""Joint sensing and task-oriented communications simulator.

Two encoders at a transmitter compress an image and the probe signal
reflected off the pictured object; a decoder at a fusion-center receiver
classifies the target as a potential transmitter (vehicle) or not (animal)
from both received vectors. All three networks train end-to-end through
differentiable AWGN or Rayleigh channels.
"""

from .channel import (
    ChannelConfig,
    SensingConfig,
    noise_std,
)
from .dataset import (
    Dataset,
    Split,
    batch_indices,
    load_cifar10,
    relabel_binary_array,
    synthetic_dataset,
)
from .errors import (
    ConfigError,
    CorruptDatasetError,
    DivergenceError,
    ShapeError,
)
from .harness import (
    ExperimentConfig,
    Metrics,
    SWEEPS,
    SweepResult,
    emit_report,
    evaluate,
    run_experiment,
    run_sweep,
    sweep_output_size,
)
from .models import (
    ModelConfig,
    Pipeline,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .rng import Rng

__version__ = "0.1.0"
