"""Exception types shared across the package."""


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
