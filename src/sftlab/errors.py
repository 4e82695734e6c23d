"""Exception types shared across the package."""

from contextlib import contextmanager


class SftlabError(Exception):
    """Base class for all package errors."""


class DeclarationError(SftlabError):
    """Invalid variable declaration (duplicate id, missing partner, bad multiplicity)."""


class TableMismatchError(SftlabError):
    """Two series over different variable tables were combined."""


class ValidationError(SftlabError):
    """An input object violates an invariant.

    ``path`` points at the offending field, e.g. ``"entries[3].value"``.
    """

    def __init__(self, message, path=""):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@contextmanager
def under_path(path, item=False):
    """Re-raise a ValidationError of a model or data check under the file
    field ``path``, which prefixes the check's own path (replaces it, ``item``)."""
    try:
        yield
    except ValidationError as exc:
        inner = f"{path}.{exc.path}" if exc.path and not item else path
        raise ValidationError(exc.message, inner) from None


class MissingPrimaryError(SftlabError):
    """Reconstruction needed a primary correlator the model does not provide."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"missing primary correlator {key}")


class LabelMismatchError(SftlabError):
    """Count data was checked against an identity for a different section choice."""
