"""Exception hierarchy for the external-memory substrate.

The simulator enforces the Aggarwal--Vitter model invariants strictly:
blocks never exceed ``b`` words, memory charges never exceed ``m`` words
(when a hard budget is requested), and I/O is only possible through the
:class:`~repro.em.disk.Disk` interface.  Violations raise subclasses of
:class:`EMError` so tests can assert on precise failure modes.
"""

from __future__ import annotations


class EMError(Exception):
    """Base class for all external-memory model violations."""


class BlockOverflowError(EMError):
    """Raised when more than ``b`` words are written into a single block."""


class MemoryBudgetExceededError(EMError):
    """Raised when a structure charges more than ``m`` words of memory."""


class InvalidBlockError(EMError):
    """Raised when a block id is malformed or refers to a freed block."""


class ConfigurationError(EMError):
    """Raised for invalid model parameters (``b``, ``m``, ``u`` ...)."""


class StorageFault(EMError):
    """A (possibly transient) storage-level failure of one backend primitive.

    Raised by fault-injecting backends to model a read or write that
    failed at the device.  Transient faults heal when the primitive is
    retried; the retry discipline lives in
    :class:`repro.service.faults.RetryingBackend`.
    """


class RetryExhausted(StorageFault):
    """A storage fault persisted through every allowed retry.

    The service layer re-raises these with the owning shard and epoch
    named in the message, so an operator can tell *where* the device
    gave up.
    """


class ServiceOverloadError(EMError):
    """The admission queue is full and the policy refuses new work.

    Raised (in strict mode) or accounted as a ``rejected`` outcome by
    :class:`repro.service.admission.AdmissionController` when offered
    load exceeds capacity and back-pressure is configured to reject
    rather than shed — the service's explicit "try again later".
    """


class SimulatedCrash(EMError):
    """A scheduled hard crash point fired (fault-injection harness).

    Models ``kill -9`` mid-operation: whoever catches it must abandon
    the in-memory state entirely and recover from the last snapshot
    plus the committed journal suffix — never from the crashed objects.
    """
