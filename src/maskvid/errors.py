"""Exception types shared across the package."""


class MaskvidError(Exception):
    """Base class for all package errors."""


class DimensionError(MaskvidError):
    """Shapes or grid geometry are inconsistent."""


class ConfigError(MaskvidError):
    """A configuration value is out of its legal range or unknown."""


class ContractError(MaskvidError):
    """A call violated an API precondition (e.g. non-scalar loss)."""


class NumericError(MaskvidError):
    """A non-finite value showed up where finite math was required."""


class SamplingError(MaskvidError):
    """A raw clip file or its sidecar manifest is missing or malformed."""


class GenerationError(MaskvidError):
    """Synthetic data generation could not satisfy its constraints."""


class CheckpointError(MaskvidError):
    """A checkpoint file is malformed, truncated, or fails its hash."""
