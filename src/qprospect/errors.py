"""Exception hierarchy.

Two top-level families matter for callers: :class:`ValidationError` means
the inputs were rejected (bad shapes, broken invariants, mis-ordered
pipelines), while :class:`NumericContractError` means validated inputs
produced numbers that break a stated numeric promise (a probability far
outside [0, 1], disagreeing dual-path computations, norm drift).  The
command line maps the former to exit code 2 and the latter to exit code 3.

A failed tolerance check (:func:`qcore.require_within`) sets ``measured``
and ``bound`` on its error; a :class:`ScenarioError` chains it as its cause.
"""


class QProspectError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QProspectError):
    """Input rejected: a declared invariant does not hold."""


class DimensionMismatchError(ValidationError):
    """Operands live on spaces of incompatible dimension."""


class SizeLimitError(ValidationError):
    """A requested operator would exceed the supported dimension cap."""


class ProtocolError(ValidationError):
    """Pipeline stages are missing, duplicated, or out of order."""


class ZeroProbabilityError(ValidationError):
    """Conditioning or reduction on an event of (near-)zero probability."""


class ScenarioError(ValidationError):
    """A scenario file failed to parse or validate.

    ``path`` holds a dotted location such as ``observables.Z.eigenbasis``, so
    the offending field can be named in diagnostics.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NumericContractError(QProspectError):
    """A numeric promise was broken on otherwise valid inputs."""
