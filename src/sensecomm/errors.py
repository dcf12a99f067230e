"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor or layer dimensions are inconsistent."""


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class LabelError(ValueError):
    """A class label or one-hot vector is malformed."""


class CorruptDatasetError(ValueError):
    """A dataset file is missing, truncated, or contains invalid bytes."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


class WorkerError(RuntimeError):
    """A sweep's worker process died before returning its training."""
