"""Exception types shared across the package."""


class IotidsError(Exception):
    """Base class for all package errors."""


class ConfigError(IotidsError):
    """Invalid experiment or synthesis configuration."""


class DataError(IotidsError):
    """Unparseable or contract-violating input data."""


class ModelError(IotidsError):
    """Model training, prediction, or persistence failure."""


# --- parsing ---------------------------------------------------------------

class MalformedHeader(DataError):
    """No #fields directive before the first data row."""

    def __init__(self, line_no: int, message: str = "no #fields directive before data"):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ColumnCountMismatch(DataError):
    def __init__(self, line_no: int, expected: int, got: int):
        super().__init__(f"line {line_no}: expected {expected} columns, got {got}")
        self.line_no = line_no
        self.expected = expected
        self.got = got


class BadNumeric(DataError):
    def __init__(self, line_no: int, column: str, token: str):
        super().__init__(f"line {line_no}: non-numeric token {token!r} in column {column!r}")
        self.line_no = line_no
        self.column = column
        self.token = token


class UnknownBinaryLabel(DataError):
    def __init__(self, raw_label: str, where: str = ""):
        message = f"label {raw_label!r} is neither benign nor malicious"
        super().__init__(f"{where}: {message}" if where else message)
        self.raw_label = raw_label


class EmptyClass(DataError):
    def __init__(self, class_name: str):
        super().__init__(f"no rows available for class {class_name!r}")
        self.class_name = class_name


class BadIpSyntax(DataError):
    def __init__(self, address: str):
        super().__init__(f"not a valid IPv4/IPv6 address: {address!r}")
        self.address = address


# --- feature matrix / splitting --------------------------------------------

class ColumnMismatch(DataError):
    """Transform applied to a matrix whose columns do not match fitted params."""


class SchemaMismatch(DataError):
    """Feature schema incompatible between fitted state and incoming data."""


class BadFractions(ConfigError):
    """Split fractions negative or not summing to one."""


class TooFewRows(DataError):
    def __init__(self, class_name: str, have: int, need: int):
        super().__init__(f"class {class_name!r} has {have} rows, k-fold needs >= {need}")
        self.class_name = class_name


# --- models -----------------------------------------------------------------

class EmptyInput(ModelError):
    """Fit called with zero rows or all-zero weights."""


class WidthMismatch(ModelError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"feature width mismatch: model expects {expected}, got {got}")
        self.expected = expected
        self.got = got


class EmptyValidation(ModelError):
    """Early stopping requires a non-empty validation set."""


class BadK(ModelError):
    """k outside [1, n_rows] for a nearest-neighbour model."""


class SingleClass(ModelError):
    """Margin classifier needs both classes present in training labels."""


class ShapeMismatch(ModelError):
    """Network input/target shapes incompatible with the layer stack."""


class NonFiniteLoss(ModelError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}; training diverged")
        self.epoch = epoch
        self.value = value


class InputTooNarrow(ModelError):
    """Convolution kernel wider than the input signal."""


class BadOneHot(ModelError):
    """Target vector is not one-hot."""


# --- evaluation / harness ----------------------------------------------------

class LengthMismatch(DataError):
    """y_true and y_pred have different lengths."""


class EmptyMatrix(DataError):
    """Metrics requested on a confusion matrix with zero total."""


class ModelDataMismatch(ModelError):
    """Persisted model incompatible with the supplied data."""


class IoFailure(IotidsError):
    """Failed to read or write an artifact file."""
