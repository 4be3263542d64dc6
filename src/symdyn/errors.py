"""Shared exception types, mapped to CLI exit codes in cli.py."""


class SymdynError(Exception):
    """Base class for all package errors."""


class ArgumentError(SymdynError):
    """Invalid argument or precondition violation (exit code 3)."""


class SpecFileError(ArgumentError):
    """Malformed or unsupported spec file; carries a field path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ResourceCapError(SymdynError):
    """A configured resource cap was exceeded (exit code 4)."""


class ConstructionError(SymdynError):
    """An internal construction step failed its re-verification."""

