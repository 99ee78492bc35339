"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with arguments that break its stated contract."""


class GraphFormatError(ValueError):
    """Malformed graph6 / edge-list input; message names the byte or line offset."""
