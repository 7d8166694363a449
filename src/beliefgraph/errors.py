"""The exceptions that the CLI maps to exit codes, and the rules for the fields
of an input, in one module that imports nothing of the package, so a command
can catch them and a boundary can apply them without loading the code that
raises them.  Each exception is also importable from the module that raises it.

Each rule (`finite_number`, `integer`, `score`, `utf8_string`, `boolean`,
`array`) returns the value it accepts and raises `ValueError` naming the field,
built only on failure (`TypeError` for `array`); a boundary maps that to its
own error: a document or file is an `InputError`, an oracle answer an
`OracleDecodeError`, and a duck-typed oracle's answer a `ConstructionError`.
"""

from math import inf, isfinite


class InputError(ValueError):
    """Malformed input document; the message names the offending location."""


class SolverLimitError(RuntimeError):
    """Instance exceeds the variable or width limit; no silent approximation."""


class ConstructionError(RuntimeError):
    """Graph construction failed: the statement budget ran out, or the oracle
    failed or gave an answer that breaks a field rule."""


class OracleTransportError(RuntimeError):
    """The oracle endpoint could not be reached or kept failing."""


class OracleDecodeError(RuntimeError):
    """The oracle endpoint or the cache file held a malformed document."""


class ReasoningError(RuntimeError):
    """The MaxSAT instance was infeasible (conflicting hard constraints)."""


def finite_number(value: object, name: str) -> float:
    """``value`` as a float if it is an int or float other than a bool, finite,
    and held exactly by a float: NaN, an infinity, and an integer such as
    ``2**53 + 1`` or ``10**400`` are refused."""
    if type(value) is float and isfinite(value):  # the common case, in one test
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = inf
        if isfinite(number) and number == value:
            return number
    raise ValueError(f"{name} must be a finite number that a float holds exactly, got {value!r}")


def integer(value: object, name: str) -> int:
    """``value`` if it is an int other than a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def score(value: object, name: str) -> float:
    """``value`` as a float if it is a `finite_number` in [0, 1]."""
    if type(value) is float and 0.0 <= value <= 1.0:  # the common case, in one test
        return value
    number = finite_number(value, name)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return number


def utf8_string(value: object, name: str) -> str:
    """``value`` if it is a string that UTF-8 can encode: one holding a lone
    surrogate such as ``"\\ud800"`` could not be printed or written back."""
    if isinstance(value, str):
        try:
            value.encode()
            return value
        except UnicodeEncodeError:
            pass
    raise ValueError(f"{name} must be a UTF-8 string, got {value!r}")


def boolean(value: object, name: str) -> bool:
    """``value`` if it is true or false: no other value is coerced to one."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def array(value: object, name: str) -> list:
    """``value`` if it is a list; anything else raises `TypeError` naming its type."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, got {type(value).__name__}")
    return value
