"""Exception types shared across the package."""


class BridgeDomainError(ValueError):
    """A bridge specification or path violates its structural invariants."""


class ModelDomainError(ValueError):
    """A model parameter or state lies outside the declared domain."""


class ZeroMeasureSpace(Exception):
    """The requested bridge space is empty, so its uniform density is undefined.

    Callers that need a probability should treat this as an exact zero.
    """


class CapacityError(OverflowError):
    """A request exceeds a size limit: exact integer counting beyond its jump
    limit, or a skeleton walk table beyond its cell limit."""


class DataFormatError(ValueError):
    """An input data file failed validation; the message names the offending row."""


class UnsupportedCaseError(ValueError):
    """A closed-form evaluation was requested outside its domain of validity."""
