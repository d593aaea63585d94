"""Exception types shared across the package."""


class UsageError(Exception):
    """A request refused before its work is done: an unusable setting, input
    or output path.  The message is the whole error line and names what is
    refused.  Not a ValueError, so that no ``except ValueError`` takes it."""


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class SettingError(ValueError):
    """A setting outside its valid range; carries the setting's name and value."""

    def __init__(self, name, value, message):
        super().__init__(message)
        self.name = name
        self.value = value


class IntegrityError(ValueError):
    """Input violates a structural constraint (e.g. duplicate (user, item) pair)."""


class SingularityError(ValueError):
    """An inverse-propensity weight would divide by zero (theta*gamma >= 1 or theta = 0)."""


class EstimationError(ValueError):
    """Propensity estimation impossible (e.g. all click counts are zero)."""


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered; message carries epoch/batch context."""

    def __init__(self, epoch, batch, message="non-finite loss"):
        super().__init__(f"{message} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
