"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor or layer dimensions are inconsistent."""


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class CorruptDatasetError(ValueError):
    """A dataset file is missing, truncated, or contains invalid bytes."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""
