"""Exception types shared across the pipeline."""


class SaclocError(Exception):
    """Base class for all errors raised by this package."""


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

class EmptyNeighborhood(SaclocError):
    """Attention requested for a node with no neighbors."""


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
