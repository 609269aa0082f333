"""Exception types shared across the package.

Exit-code mapping for the CLI lives in cli.py; everything here is plain
Python exceptions so library users can catch what they care about.
"""


class ShrqError(Exception):
    """Base class for all package errors."""


class ConfigError(ShrqError):
    """Invalid deployment or key parameters (violated bound, bad layout...)."""


class SetupError(ShrqError):
    """Group/parameter generation failed (e.g. cofactor scan exhausted)."""


class IngestionError(ShrqError):
    """A dataset record is malformed or out of domain."""


class QueryRejected(ShrqError):
    """Query not supported by the deployment: "reason: detail"."""

    def __init__(self, reason, detail):
        super().__init__(f"{reason}: {detail}")


class ProtocolError(ShrqError):
    """Malformed or inconsistent wire-level exchange."""


class DataIntegrityError(ShrqError):
    """Server state or returned payload fails an authenticity/consistency check."""


class NotFoundError(ShrqError):
    """Delete/update of a record id the server does not hold."""


class DuplicateIdError(ShrqError):
    """Insert of a record id the server already holds."""


class KeyfileError(ShrqError):
    """Key file failed parsing or its re-derivable consistency checks."""


class ServerUnreachable(ShrqError):
    """Could not connect to the query server."""
