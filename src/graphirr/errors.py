"""Exception types shared across the package."""


class InputError(ValueError):
    """Bad user input or violated operation precondition."""


class CapabilityError(RuntimeError):
    """Request exceeds a hard size cap of the implementation."""

