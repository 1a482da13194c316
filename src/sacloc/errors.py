"""Exception types shared across the pipeline."""


class SaclocError(Exception):
    """Base class for all errors raised by this package."""


# settings --------------------------------------------------------------

class OutOfRange(ValueError):
    """A setting outside its range. `field` names the setting: a dataclass
    field, which is its config key, or the key with its section (`train.lr`)
    once the config loader has added it."""

    def __init__(self, field: str, what: str, value):
        self.field = field
        self.what = what
        self.value = value
        super().__init__(f"{field} must be {what}, got {value}")


def check_ranges(rows) -> None:
    """Raise OutOfRange for the first (field, value, valid, what) row whose
    `valid` is false. Write each test so that NaN fails it."""
    for field, value, valid, what in rows:
        if not valid:
            raise OutOfRange(field, what, value)


# dataset ---------------------------------------------------------------

class MissingColumn(SaclocError):
    """A required CSV column is absent."""


class DuplicateColumn(SaclocError):
    """A CSV header names the same column more than once."""


class BadInventory(SaclocError):
    """An AP inventory file repeats an AP id or gives a non-finite position."""


class MalformedRow(SaclocError):
    """A CSV data row could not be parsed; carries the file and the 1-based row index."""

    def __init__(self, path, row_index: int, message: str):
        self.path = path
        self.row_index = row_index
        super().__init__(f"{path}: row {row_index}: {message}")


class EmptyFile(SaclocError):
    """The input file contained no data rows."""


class EmptyInput(SaclocError):
    """An operation received an empty collection."""


# autodiff --------------------------------------------------------------

class ShapeMismatch(SaclocError):
    """Tensor shapes do not conform for the requested primitive."""


class NonScalarLoss(SaclocError):
    """backward() was called on a tensor that is not a scalar."""


class StepOutOfRange(SaclocError):
    """Schedule queried outside [0, total_steps]."""


class BadCheckpoint(SaclocError):
    """A checkpoint file is foreign, truncated or of a version no longer read."""

    def __init__(self, path, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


# gtmodel ---------------------------------------------------------------

class DimensionMismatch(SaclocError):
    """Graph dimensions do not match the model's expectations."""


class EmptyBatch(SaclocError):
    """Loss requested over an empty batch."""


class TrainingDiverged(SaclocError):
    """Training produced a non-finite loss; carries the epoch and batch indices."""

    def __init__(self, epoch: int, batch: int):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


# regions ---------------------------------------------------------------

class TooFewPoints(SaclocError):
    """Fewer distinct points than requested clusters."""


# conformal -------------------------------------------------------------

class EmptyCalibration(SaclocError):
    """Calibration requested with no calibration samples."""


class BadCalibration(SaclocError):
    """A calibration file is not valid JSON, foreign, incomplete or of another version."""

    def __init__(self, path, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


# evalreport ------------------------------------------------------------

class IoError(SaclocError):
    """A report file could not be written."""


# cli -------------------------------------------------------------------

class ConfigError(SaclocError):
    """The run configuration is missing or invalid."""


class MissingArtifact(SaclocError):
    """A prerequisite artifact (checkpoint, calibration file) is absent."""
