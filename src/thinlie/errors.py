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


class NoAnnihilator(ThinlieError):
    pass


class MalformedDiamond(ThinlieError):
    pass


class ConsecutiveDiamonds(ThinlieError):
    pass


class NotStabilized(ThinlieError):
    pass


class CriterionFailed(ThinlieError):
    """An acceptance criterion does not hold."""
