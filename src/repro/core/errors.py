"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate between configuration problems, protocol violations
and simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration value is invalid.

    Examples include a non-positive number of outliers ``n``, a sliding window
    of zero length, or an unknown ranking-function name.
    """


class RankingError(ReproError):
    """Raised when a ranking function is evaluated on invalid input."""


class ProtocolError(ReproError):
    """Raised when the distributed protocol is driven incorrectly.

    For instance, delivering a message from a sensor that is not a neighbor of
    the receiving sensor, or handing the detector a point whose origin field
    does not match the local sensor id.
    """


class TopologyError(ReproError):
    """Raised for invalid network topologies (e.g. a disconnected network
    where connectivity is required, or duplicate node identifiers)."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator is misused.

    Examples include scheduling an event in the past or running a simulation
    that was already finalised.
    """


class RoutingError(ReproError):
    """Raised by the routing substrate (e.g. no route can be established to
    the requested destination in a connected component)."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or loaded as requested."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is configured inconsistently."""

