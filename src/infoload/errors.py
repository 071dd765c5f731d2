"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A curve or trader parameter is outside its admissible domain."""


class PreconditionError(ValueError):
    """A caller violated an operation's stated precondition."""


class ConfigError(PreconditionError):
    """A configuration value violates the schema or a model invariant.

    Carries the dotted path of the offending field so CLI errors can name it.
    A ``PreconditionError``: the value breaks the precondition of its callee.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class NumericRangeError(ArithmeticError):
    """A numeric result failed its check: a NaN ``kernels.log_marginal_ratio`` (never NaN
    for accepted parameters), or an optimizer and oracle that disagree."""
