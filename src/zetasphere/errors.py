"""Exception types shared across the toolkit."""


class ZetasphereError(Exception):
    pass


class DomainError(ZetasphereError, ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(ZetasphereError, ZeroDivisionError):
    """Evaluation requested at (or within 1e-12 of) a pole.

    ``point`` is the pole location, ``residue`` its residue when the pole is
    simple and the residue is known in closed form, ``index`` the pole index
    k for the Gamma-family poles at -k.
    """

    def __init__(self, point, residue=None, index=None):
        self.point = point
        self.residue = residue
        self.index = index
        msg = f"pole at {point}"
        if residue is not None:
            msg += f" (residue {residue})"
        super().__init__(msg)


class ConvergenceError(ZetasphereError, ArithmeticError):
    """A series or probe failed to reach the requested tolerance."""


class RealnessViolation(ZetasphereError, ArithmeticError):
    """The completed zeta came back measurably non-real on the critical line.

    This signals an evaluator bug, never a property of the function.
    """


class NoSignChange(ZetasphereError, ValueError):
    """A refinement bracket does not straddle a sign change."""


class PhaseJumpError(ZetasphereError, ArithmeticError):
    """Adjacent boundary phase samples stayed > pi/4 apart after refinement
    (contour too close to a zero or pole)."""


class InvalidSpherePoint(ZetasphereError, ValueError):
    """Coordinates do not satisfy the sphere constraint equation."""


class InsufficientOrdinates(ZetasphereError, ValueError):
    """The sector retraction needs at least two strictly increasing ordinates."""


class BoundaryPoint(ZetasphereError, ValueError):
    """Finite-difference stencil would straddle a sector boundary."""


class DegreeNotZero(ZetasphereError, ValueError):
    """A divisor that should be principal (degree 0) is not."""
