"""Exception types shared across the package."""


class QbsdeError(Exception):
    """Base class for all qbsde-specific errors."""


class CapacityError(QbsdeError):
    """A requested simulation or resimulation exceeds the configured budget."""


class SolverDivergenceError(QbsdeError):
    """Picard iteration failed to converge at some backward step."""

    def __init__(self, step: int, sup_change: float, max_iter: int):
        self.step = step
        self.sup_change = sup_change
        self.max_iter = max_iter
        super().__init__(
            f"Picard iteration did not converge at step {step}: "
            f"sup change {sup_change:.3e} after {max_iter} iterations"
        )


class DegenerateBasisError(QbsdeError):
    """A regression design has zero rank, or it, its target or a sweep's Y row is not finite."""


class MomentFailureError(QbsdeError):
    """An exponential-moment estimate blew up; the problem leaves the valid regime."""


class GridMismatchError(QbsdeError):
    """Two objects that must share a time grid were built on different grids."""


class UnknownDriverError(QbsdeError, KeyError):
    """A driver name was requested that is not in the builtin registry."""


class ConfigValidationError(QbsdeError):
    """An experiment config failed schema or constraint validation.

    ``errors`` is a list of (path, message) pairs pointing at the offending keys.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.errors)
        super().__init__(f"invalid experiment config: {lines}")
