"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class InternalAssertionError(WorkbenchError):
    """A cross-check that should always hold failed; indicates a bug."""


# --- poset construction ------------------------------------------------

class DuplicateLabel(WorkbenchError):
    pass


class UnknownLabel(WorkbenchError):
    pass


class CycleDetected(WorkbenchError):
    pass


class UnknownPoint(WorkbenchError):
    pass


class NotAnUpset(WorkbenchError):
    pass


# --- lattice validation ------------------------------------------------

class NotALattice(WorkbenchError):
    """Carries a witness pair lacking a meet or join."""

    def __init__(self, kind, pair):
        self.kind = kind
        self.pair = pair
        super().__init__(f"no {kind} for pair {pair}")


class NotDistributive(WorkbenchError):
    """Carries a witness triple violating distributivity."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"distributivity fails at triple {triple}")


class Unbounded(WorkbenchError):
    pass


class UnknownElement(WorkbenchError):
    pass


class SpaceMismatch(WorkbenchError):
    pass


# --- nucleus validation ------------------------------------------------

class NotInflationary(WorkbenchError):
    def __init__(self, upset):
        self.upset = upset
        super().__init__(f"U is not contained in jU for U = {sorted(upset)}")


class NotIdempotent(WorkbenchError):
    def __init__(self, upset):
        self.upset = upset
        super().__init__(f"jjU differs from jU for U = {sorted(upset)}")


class NotMeetPreserving(WorkbenchError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(
            f"j(U & V) differs from jU & jV for U = {sorted(u)}, V = {sorted(v)}"
        )


# --- engines -----------------------------------------------------------

class NotClopenUpset(WorkbenchError):
    pass


class NotLocalic(WorkbenchError):
    pass


class NotRepresentable(WorkbenchError):
    pass


class FamilyMismatch(WorkbenchError):
    pass


# --- oracle ------------------------------------------------------------

class BoundExceeded(WorkbenchError):
    pass


class UnknownTheoremId(WorkbenchError):
    pass


class EmptySelection(WorkbenchError):
    """A theorem selection that names no theorem."""
