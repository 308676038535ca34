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
    """Exact integer counting was requested beyond the configured jump limit."""


class RejectionCapExceeded(RuntimeError):
    """The batch skeleton shuffle hit its round cap.

    Carries ``tries`` and ``accepted`` so the observed acceptance rate can be
    reported instead of silently biasing or hanging.
    """

    def __init__(self, tries: int, accepted: int, cap: int):
        self.tries = tries
        self.accepted = accepted
        self.cap = cap
        rate = accepted / tries if tries else 0.0
        super().__init__(
            f"rejection sampler exceeded {cap} tries "
            f"(accepted {accepted}/{tries}, acceptance rate {rate:.3g})"
        )


class DataFormatError(ValueError):
    """An input data file failed validation; the message names the offending row."""


class UnsupportedCaseError(ValueError):
    """A closed-form evaluation was requested outside its domain of validity."""
