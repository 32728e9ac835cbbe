"""Exception types shared across the package, one class per kind of fault."""


class CGESError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(CGESError, ValueError):
    """A config value or combination of values is unusable, such as a candidate
    count K that cannot hold the labels, or predictions and gold ids that differ."""


class EmptySamplesError(CGESError, ValueError):
    """An operation that needs at least one sample received none."""


class InvalidSampleError(CGESError, ValueError):
    """A sample, record or token list is malformed: a confidence outside (0, 1), a
    round below 1, repeated candidate labels, a label outside a fixed candidate
    set, no tokens, a token probability outside (0, 1], or a non-finite reward."""


class SamplerError(CGESError, RuntimeError):
    """Sampling a response failed definitively (HTTP retries exhausted, reply
    malformed, or record unusable)."""


class ReplayMissError(CGESError, LookupError):
    """A replay store has no record for the requested (question, round) key."""


class DuplicateRecordError(CGESError, ValueError):
    """A record store already holds a record for this (question, round) key."""
