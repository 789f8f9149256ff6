"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library may raise with one ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError, ValueError):
    """An array has an incompatible shape for the requested operation."""


class NonNegativityError(ReproError, ValueError):
    """An input that must be elementwise nonnegative contains negative entries."""


class CommunicatorError(ReproError, RuntimeError):
    """Misuse of the SPMD communicator (rank mismatch, dead backend, ...)."""


class PartitionError(ReproError, ValueError):
    """A matrix cannot be partitioned as requested (e.g. more ranks than rows)."""


class SolverError(ReproError, RuntimeError):
    """A local NLS solver failed to produce a valid solution."""


class ModelLoadError(ReproError, RuntimeError):
    """A saved model artifact could not be loaded or failed validation.

    Raised by :meth:`repro.core.result.NMFResult.load` (and by the serving
    model store on top of it) instead of the raw NumPy/zipfile/OS error, so a
    bad artifact is diagnosable from the message alone: it always names the
    ``path`` involved and, when a required array or metadata key is absent,
    the ``missing_key``.
    """

    def __init__(self, message: str, *, path=None, missing_key=None):
        self.path = str(path) if path is not None else None
        self.missing_key = missing_key
        super().__init__(message)


class ConvergenceWarning(UserWarning):
    """The iterative algorithm stopped before reaching the requested tolerance."""
