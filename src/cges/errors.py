"""Exception types shared across the package."""


class CGESError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(CGESError, ValueError):
    """A config value or combination of values is unusable."""


class CandidateCountError(CGESError, ValueError):
    """Effective candidate count is below 2 or a fixed K cannot hold the observed labels."""


class EmptySamplesError(CGESError, ValueError):
    """An operation that needs at least one sample received none."""


class InvalidSampleError(CGESError, ValueError):
    """A sample, record or token list is malformed: a confidence outside (0, 1),
    a round below 1, repeated candidate labels, or a token probability outside (0, 1]."""


class EmptyResponseError(CGESError, ValueError):
    """A tokenized response carries no tokens."""


class UnknownLabelError(CGESError, ValueError):
    """A sample label is missing from a fixed candidate set."""


class InvalidScoreError(CGESError, ValueError):
    """A reward score is not a finite number."""


class SamplerError(CGESError, RuntimeError):
    """Sampling a response failed definitively (HTTP retries exhausted, reply
    malformed, or record unusable)."""


class ReplayMissError(CGESError, LookupError):
    """A replay store has no record for the requested (question, round) key."""


class DuplicateRecordError(CGESError, ValueError):
    """A record store already holds a record for this (question, round) key."""


class KeyMismatchError(CGESError, ValueError):
    """Predictions and questions do not cover the same question ids."""
