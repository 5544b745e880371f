"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit with 2,
I/O failures (plain OSError) with 3, numeric divergence with 4.
"""


class HealError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HealError, ValueError):
    """Bad input: violated invariant, out-of-range argument, schema problem.
    ``field`` names the trace field of a refused trajectory value, else None."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TraceFormatError(ValidationError):
    """Malformed trace/metrics line; carries the 1-based line number."""

    def __init__(self, line_no: int, field: str, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}, field '{field}': {message}", field)


class DivergenceError(HealError, RuntimeError):
    """Non-finite loss or gradient during training."""
