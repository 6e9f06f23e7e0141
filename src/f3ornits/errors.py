"""Exception types shared across the package, and the two rules for a
number a user gives: `read_value` and `check_step`."""

import math
import types
import typing


class ConfigError(ValueError):
    """Invalid run configuration, parameter value or capability combination."""


class CalibrationError(ValueError):
    """Degenerate calibration data (duplicate / non-increasing times, singular fit)."""


class SequencingError(RuntimeError):
    """Time bookkeeping moved backwards (non-increasing sample or window times)."""


class ContractViolation(RuntimeError):
    """A subsystem received data that exceeds its declared capabilities."""


class DivergenceError(RuntimeError):
    """A subsystem's state, or a number made from data it exchanges, overflowed.

    Carries the subsystem label and the last communication time at which the
    state was still finite, so callers can report where the run broke down.
    """

    def __init__(self, label: str, t_last_good: float):
        super().__init__(
            f"subsystem {label!r} diverged after t = {t_last_good:.6g} s"
        )
        self.label = label
        self.t_last_good = t_last_good

    def __reduce__(self):
        # pickle rebuilds an exception from self.args, the message alone,
        # which this __init__ does not take
        return type(self), (self.label, self.t_last_good)


_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def read_value(key: str, value, hint):
    """`value`, text or a number, as the bool, int, float or str of a field
    annotated `hint` (`X | None` reads as `X`): a bool is a `_TRUE` or
    `_FALSE` word, a float is finite, an int is exact from integer text or
    a finite float without a fraction ("7.0", "1e3").  Anything else is a
    ConfigError naming `key`."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if hint is str:
        return str(value)
    if hint is bool:
        word = str(value).lower()
        if word in _TRUE or word in _FALSE:
            return word in _TRUE
    elif hint is int and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass  # "7.0", "1e3", "nan" and "abc" are judged as floats below
    try:
        if hint not in (int, float):
            raise ValueError(value)
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"key {key!r}: cannot read {value!r} as {hint.__name__}"
        ) from None
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r}: must be finite, got {value!r}")
    if hint is int and not number.is_integer():
        raise ConfigError(f"key {key!r}: must be an integer, got {value!r}")
    return int(number) if hint is int else number


def check_step(what: str, step: float) -> float:
    """`step`, refused as a ConfigError opening with `what` unless it is
    finite and positive: the one rule for a step a user gives."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"{what} must be finite and positive, got {step!r}")
    return step
