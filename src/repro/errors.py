"""Exception hierarchy for the THOR reproduction.

Every error raised by the library derives from :class:`ThorError`, so
callers can catch a single type at the pipeline boundary while the
individual subsystems raise precise subclasses.
"""

from __future__ import annotations


class ThorError(Exception):
    """Base class for all errors raised by this library."""


class HtmlParseError(ThorError):
    """Raised when the HTML parser meets input it cannot recover from
    (the parser is lenient, so this is rare and indicates a bug or
    truly pathological input such as an unterminated quoted attribute
    at end-of-document when strict mode is requested)."""


class PathSyntaxError(ThorError):
    """Raised for malformed XPath-style path expressions."""


class PathResolutionError(ThorError):
    """Raised when a syntactically valid path does not resolve to a node
    in the given tree and the caller asked for strict resolution."""


class VectorError(ThorError):
    """Raised for invalid vector-space operations (e.g. centroid of an
    empty collection)."""


class ClusteringError(ThorError):
    """Raised for invalid clustering requests (e.g. k < 1, or k greater
    than the number of items when the algorithm cannot degrade)."""


class ProbeError(ThorError):
    """Raised when Stage 1 probing cannot obtain any pages from a
    source (e.g. the source raises for every probe term)."""


class ExtractionError(ThorError):
    """Raised when the two-phase extraction is invoked with inputs that
    make extraction impossible (e.g. an empty page cluster)."""


class SiteGenerationError(ThorError):
    """Raised by the deep-web simulator when a site specification is
    inconsistent (e.g. a domain with no records)."""


class EvaluationError(ThorError):
    """Raised by evaluation helpers on malformed ground truth."""


class ConfigError(ThorError):
    """Raised for configuration that is not meaningful — e.g. a fleet
    job submitted without a persistent artifact store. The message
    always names the knob that fixes it."""


class ResilienceError(ThorError):
    """Base class for fault-tolerant-runtime errors (the
    :mod:`repro.resilience` layer): chunk execution that could not be
    recovered, stage deadlines, and resume-manifest mismatches."""


class ChunkFailedError(ResilienceError):
    """A chunk of a :func:`repro.runtime.run_chunked` fan-out failed and
    could not be (or was configured not to be) recovered.

    Carries the *payload indices* of the failed chunk — the positions of
    its items in the original ``items`` sequence — so a worker traceback
    is actionable without re-running the whole batch. The causing worker
    exception rides on ``__cause__``.
    """

    def __init__(self, message: str, indices: tuple[int, ...] = (), label: str = ""):
        super().__init__(message)
        #: Positions (in the original items sequence) of the failed chunk.
        self.indices = tuple(indices)
        #: The fan-out's label (which stage submitted the chunk).
        self.label = label


class StageTimeoutError(ResilienceError):
    """A pipeline stage exceeded its wall-clock deadline
    (``ExecutionConfig.stage_timeouts``) and was cancelled by the stage
    watchdog."""

    def __init__(self, message: str, stage: str = "", timeout_s: float = 0.0):
        super().__init__(message)
        #: Which stage hit its deadline ("probe", "cluster", ...).
        self.stage = stage
        #: The deadline that was exceeded, in seconds.
        self.timeout_s = timeout_s


class ResumeError(ResilienceError):
    """A checkpointed run cannot be resumed: the manifest is missing,
    corrupt, or was written under a different configuration
    fingerprint (resuming it would silently change results)."""
