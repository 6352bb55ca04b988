"""Error taxonomy shared by every module.

Three families, mirrored by the CLI exit codes:

* :class:`ValidationError` -- the input (graph, partition, packing, flag
  value, ...) is malformed or violates a documented precondition; exit 2.
* :class:`LimitError` -- the request is well-formed but a scan passed
  its step budget; exit 3.
* :class:`InternalError` -- a solver or heuristic gave up; exit 4.

Each concrete class carries a stable ``code`` string used in CLI error
reports, so callers can match on codes without importing the classes.
"""

from __future__ import annotations


class QNetError(Exception):
    """Base class for every error raised by this package."""

    code = "Error"


class ValidationError(QNetError):
    """Bad input or violated precondition (CLI exit 2)."""


class LimitError(QNetError):
    """A scan passed its step budget, or a request its size cap (CLI exit 3)."""


class InternalError(QNetError):
    """Solver or heuristic failure (CLI exit 4)."""


class SchemaError(ValidationError):
    code = "Schema"


class SelfLoopError(ValidationError):
    code = "SelfLoop"


class DuplicateEdgeError(ValidationError):
    code = "DuplicateEdge"


class NegativeRateError(ValidationError):
    code = "NegativeRate"


class UnknownNodeError(ValidationError):
    code = "UnknownNode"


class DisconnectedError(ValidationError):
    code = "Disconnected"


class TrivialNetworkError(ValidationError):
    code = "TrivialNetwork"


class InvalidPartitionError(ValidationError):
    code = "InvalidPartition"


class InvalidSubsetError(ValidationError):
    code = "InvalidSubset"


class InvalidEdgeError(ValidationError):
    code = "InvalidEdge"


class InvalidPackingError(ValidationError):
    code = "InvalidPacking"


class PreconditionFailedError(ValidationError):
    code = "PreconditionFailed"


class EmptyPlanError(ValidationError):
    code = "EmptyPlan"


class KeyDepletedError(ValidationError):
    code = "KeyDepleted"


class IncompleteTranscriptError(ValidationError):
    code = "IncompleteTranscript"


class ExactModeLimitError(LimitError):
    code = "ExactModeLimit"


class SolverLimitError(InternalError):
    code = "SolverLimit"


class HeuristicFailedError(InternalError):
    """A packer or the protocol gave up at its budget; ``partition``, when
    set, is a vertex partition proving that the requested trees do not fit."""

    code = "HeuristicFailed"

    def __init__(self, message: str, partition=None):
        super().__init__(message)
        self.partition = partition
