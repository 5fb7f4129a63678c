"""Exception hierarchy shared by every nahmkit module.

Errors are contracts, not afterthoughts: an operation either certifies its
answer or raises one of these.  Nothing here is ever swallowed silently.
"""


class NahmkitError(Exception):
    """Base class of all nahmkit errors."""


class InputError(NahmkitError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class FieldExtensionRequired(NahmkitError):
    """The session coefficient field is too small for the requested split.

    Raised instead of silently adjoining roots (CLI exit code 3).
    higgs.realize_block and linalg.scalar_poly_roots still raise it without
    a witness that the root is missing.
    """


class PrecisionExhausted(NahmkitError):
    """A certificate cannot be produced at the working truncation order.

    Carries a message (CLI exit code 3); the one from higgs._slope_parts
    names the precision it needs.
    """


class NotAdmissible(NahmkitError):
    """A Higgs germ does not split into pure-slope blocks.

    The message names the obstruction (which Newton slope group or which
    residue block resisted splitting).
    """


class VerdictFailure(NahmkitError):
    """A checked condition fails; carries the structured failure report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
