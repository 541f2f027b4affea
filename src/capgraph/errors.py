"""Exception types raised across the package."""


class CapgraphError(Exception):
    """Base class for all package errors."""


class MissingFile(CapgraphError):
    pass


class MalformedRecord(CapgraphError):
    def __init__(self, path, line_number: int, reason: str):
        self.path = str(path)
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"{path}:{line_number}: {reason}")


class DimensionMismatch(CapgraphError):
    pass


class IoFailure(CapgraphError):
    pass


class LlmTransport(CapgraphError):
    """Network or protocol failure talking to the chat endpoint (after retries)."""


class NoGtFrames(CapgraphError):
    pass


def read_failure(path, error: OSError) -> CapgraphError:
    """The error for a file that could not be opened or read: ``MissingFile``
    when ``path`` does not exist, else ``IoFailure`` naming it and the cause."""
    if isinstance(error, FileNotFoundError):
        return MissingFile(str(path))
    return IoFailure(f"cannot read {path}: {error.strerror or error}")


class StageError(CapgraphError):
    """Wraps the first fatal error of a pipeline stage with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")
