"""The exceptions that the CLI maps to exit codes, in one module that imports
nothing, so a command can catch them without loading the code that raises
them.  Each is also importable from the module that raises it.
"""


class InputError(ValueError):
    """Malformed input document; the message names the offending location."""


class SolverLimitError(RuntimeError):
    """Instance exceeds the variable or width limit; no silent approximation."""


class ConstructionError(RuntimeError):
    """Graph construction failed: the statement budget ran out, or the oracle
    failed or gave text that is not UTF-8."""


class OracleTransportError(RuntimeError):
    """The oracle endpoint could not be reached or kept failing."""


class OracleDecodeError(RuntimeError):
    """The oracle endpoint or the cache file held a malformed document."""


class ReasoningError(RuntimeError):
    """The MaxSAT instance was infeasible (conflicting hard constraints)."""
