"""Exception types shared across the package."""


class TesseraError(Exception):
    """Base class for every failure this package raises on purpose."""


class DimensionError(TesseraError, ValueError):
    """Inputs have incompatible, empty, or otherwise unusable shapes."""


class ConfigError(TesseraError, ValueError):
    """A configuration value is missing, unknown, or out of range."""


class CalibrationError(TesseraError, ValueError):
    """Calibration inputs cannot produce a valid conformal quantile."""


class MetricError(TesseraError, ValueError):
    """A metric is undefined for the given inputs."""


class CsvFormatError(TesseraError, ValueError):
    """A CSV file does not match the expected dataset schema."""


class TrainingError(TesseraError, RuntimeError):
    """Training produced a non-finite loss or gradient."""


class ModelError(TesseraError, RuntimeError):
    """A forward pass produced non-finite values; the message names the layer."""
