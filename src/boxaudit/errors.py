"""Typed errors shared across the package.

Every error carries a short machine-parsable ``category`` slug which the CLI
prints as a single-line prefix (``error[<category>]: ...``).
"""


class AuditError(Exception):
    """Base class for all boxaudit errors."""

    category = "error"


class InvalidInputError(AuditError):
    """A value violates an operation precondition (degenerate box, mixed
    image ids, label out of range, mismatched references, ...)."""

    category = "invalid-input"


class MissingFileError(AuditError):
    """An input file does not exist."""

    category = "missing-file"


class FormatError(AuditError):
    """Input file cannot be parsed; the message reports where."""

    category = "malformed-syntax"


class DanglingReferenceError(AuditError):
    """An entry references an image or category id that does not exist."""

    category = "dangling-reference"


class DuplicateIdError(AuditError):
    """An image, category, or annotation id occurs more than once."""

    category = "duplicate-id"


class InvalidScoreError(AuditError):
    """A prediction score lies outside [0, 1]."""

    category = "invalid-score"


class InvalidSpecError(AuditError):
    """A flag out of range or in conflict, or an inconsistent noise spec."""

    category = "invalid-spec"


class EmptyLedgerError(AuditError):
    """Evaluation was requested but the ledger holds no perturbations."""

    category = "empty-ledger"
