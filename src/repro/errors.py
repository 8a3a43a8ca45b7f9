"""Exception hierarchy for the MOON reproduction.

Every layer raises a subclass of :class:`ReproError` so callers can catch
library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class TraceError(ReproError):
    """An availability trace is malformed (overlaps, bad bounds)."""


class NetworkError(ReproError):
    """A transfer could not be carried out."""


class DfsError(ReproError):
    """Distributed file system failure."""


class BlockUnavailable(DfsError):
    """No live replica of a block can currently serve a read."""


class WriteDeclined(DfsError):
    """A write was declined (e.g. opportunistic write to saturated
    dedicated DataNodes, per paper Fig. 3)."""


class FileNotFound(DfsError):
    """Unknown DFS path."""


class FileAlreadyExists(DfsError):
    """A DFS path was created twice."""


class SchedulingError(ReproError):
    """Task scheduler invariant violation."""


class LocalRuntimeError(ReproError):
    """Functional (in-process) MapReduce engine failure."""


class SnapshotError(ReproError):
    """A snapshot file is malformed, from an incompatible version, or
    could not be captured (unpicklable state in the object graph)."""
