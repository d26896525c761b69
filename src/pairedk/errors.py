"""Exception types shared across the package."""


class PairedKError(Exception):
    """Base class for all library errors."""


class PoleOnCircle(PairedKError):
    """A function required to lie in L2 of the circle has a pole on it."""


class ZeroDenominator(PairedKError):
    pass


class ZeroFunction(PairedKError):
    pass


class DegreeOverflow(PairedKError):
    """Polynomial degree beyond the supported bound (64)."""


class NotInHardySpace(PairedKError):
    pass


class ZeroOrPoleOnCircle(PairedKError):
    """Winding/Wiener-Hopf inputs must be zero- and pole-free on the circle."""


class SymbolNotBounded(PairedKError):
    """Operator symbols must be essentially bounded (no poles on the circle)."""


class DomainMismatch(PairedKError):
    pass


class WindowOverflow(PairedKError):
    pass


class DegenerateSymbol(PairedKError):
    """Symbol pair violates the standing nondegeneracy assumptions."""


class DegenerateInput(PairedKError):
    pass


class TrivialKernel(PairedKError):
    """A criterion only defined for nontrivial kernels was invoked on a trivial one."""


class NotInner(PairedKError):
    pass


class NotInKernel(PairedKError):
    pass


class PartitionOfUnityFails(PairedKError):
    """Supplied a', b' do not satisfy a*a' + b*b' = 1."""


class CertificateFailed(PairedKError):
    """A result failed the self-check the library runs on its own output."""


class OracleIndeterminate(PairedKError):
    """Numerical rank/kernel decision lacks the required spectral gap."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class UnknownProperty(PairedKError):
    pass


class MalformedConfig(PairedKError):
    pass
