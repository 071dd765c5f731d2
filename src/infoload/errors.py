"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A curve or trader parameter is outside its admissible domain.

    ``agent`` is the failing row of columns checked by ``curves.check_columns``, None
    for one row (a curve or a ``Trader``); ``message`` is the text after ``agent k: ``.
    """

    def __init__(self, message, agent=None):
        super().__init__(message if agent is None else f"agent {agent}: {message}")
        self.agent, self.message = agent, message


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
    """A numeric result failed its check: a NaN h in ``agent.sign_walk`` (the solve and the
    sweep; never NaN for accepted parameters), or an optimizer and oracle that disagree."""
