"""The exceptions that the CLI maps to exit codes, in one module that imports
nothing, so a command can catch them without loading the code that raises
them.  Each is also importable from the module that raises it.
"""


class InputError(ValueError):
    """Malformed input document; the message names the offending location."""


class SolverLimitError(RuntimeError):
    """Instance exceeds the variable or width limit; no silent approximation."""


class ConstructionError(RuntimeError):
    """Graph construction failed; carries how far it got."""

    def __init__(self, message: str, statements_built: int = 0, rules_built: int = 0):
        super().__init__(message)
        self.statements_built = statements_built
        self.rules_built = rules_built


class OracleTransportError(RuntimeError):
    """The oracle endpoint could not be reached or kept failing."""


class OracleDecodeError(RuntimeError):
    """The oracle endpoint or the cache file held a malformed document."""


class ReasoningError(RuntimeError):
    """The MaxSAT instance was infeasible (conflicting hard constraints)."""
