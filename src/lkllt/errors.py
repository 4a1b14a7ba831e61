"""Exception hierarchy shared by all lkllt modules."""


class LklltError(Exception):
    """Base class for all library errors."""


class InvalidDistribution(LklltError):
    """Weights or masses do not define a probability distribution."""


class InvalidParameter(LklltError):
    """An argument is outside its documented domain."""


class DegenerateChain(LklltError):
    """A chain statistic (e.g. a jump rate q_m) is zero, so a bound is undefined."""


class NumericalFailure(LklltError):
    """An iterative numerical routine failed to reach its tolerance."""


class TooLarge(LklltError):
    """Problem size exceeds the documented exact-computation budget."""
