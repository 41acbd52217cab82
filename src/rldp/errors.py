"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent inputs (shapes, grids, non-finite values)."""


class PreconditionError(InputError):
    """A documented operation precondition was violated."""


class ModelError(RuntimeError):
    """Coefficient evaluation produced invalid (non-finite) output."""


class BudgetError(RuntimeError):
    """A configured resource budget would be exceeded."""


class ConfigError(ValueError):
    """Scenario configuration failed validation."""
