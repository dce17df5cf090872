"""Exception types shared across the package."""


class ThinlieError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeCharacteristic(ThinlieError):
    pass


class ReducibleModulus(ThinlieError):
    pass


class FieldTooLarge(ThinlieError):
    pass


class FieldSizeMismatch(ThinlieError):
    pass


class TableMismatch(ThinlieError):
    pass


class NotASubalgebra(ThinlieError):
    pass


class NotAnIdeal(ThinlieError):
    pass


class NotAdditivelyClosed(ThinlieError):
    pass


class ThetaNotAdditive(ThinlieError):
    pass


class NoRootInField(ThinlieError):
    pass


class Mu3InPrimeField(ThinlieError):
    pass


class DenominatorZero(ThinlieError):
    pass


class StructuralFailure(ThinlieError):
    """A relation of the thin report that breaks at a degree (the slot of a
    diamond, or the degree of a component): a verification failure, not a
    configuration error."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


class NoAnnihilator(StructuralFailure):
    pass


class MalformedDiamond(StructuralFailure):
    pass


class ConsecutiveDiamonds(StructuralFailure):
    pass


class NotStabilized(ThinlieError):
    pass


class CriterionFailed(ThinlieError):
    """An acceptance criterion does not hold."""
