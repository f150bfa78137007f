"""Exception types raised across the library.

Validation problems (bad arguments, malformed configs) derive from
``ValueError`` so they behave like ordinary argument errors; expected
task-level failures (a missed grasp, an occluded joint) derive from
``TaskFailure`` and are caught and recorded by the task runners.
"""


class RockstackError(Exception):
    """Base class for every library-specific error."""


class ValidationError(RockstackError, ValueError):
    """Invalid argument or configuration value."""


class ConfigError(ValidationError):
    """Malformed experiment config; message carries the field path."""


class MissingDepthError(RockstackError):
    """Depth sample is 0 (the missing-depth sentinel) where a value is required."""


class OutOfBoundsError(RockstackError):
    """Pixel coordinates outside the image."""


class BehindCameraError(RockstackError):
    """Point has z <= 0 in the camera frame and cannot be projected."""


class EmptyMaskError(RockstackError):
    """Mask has no set pixels."""


class EmptyCloudError(RockstackError):
    """Point cloud has no points where at least one is required."""


class TooFewPointsError(RockstackError):
    """Cloud smaller than the neighborhood size requested."""


class DegenerateInputError(RockstackError):
    """Input admits no valid model (e.g. collinear points for a plane)."""


class PlacementError(RockstackError):
    """Scene generator could not place objects under the clearance constraint."""


class NegativeHeightError(RockstackError):
    """Estimated object top lies below the support reference."""


class InsufficientSamplesError(RockstackError):
    """Fewer samples than the statistic requires."""


class TaskFailure(RockstackError):
    """Expected, recoverable task-level failure; carries a failure code."""

    code = "task-failure"


class UnreachablePoseError(TaskFailure):
    code = "unreachable-pose"


class GraspMissError(TaskFailure):
    code = "grasp-miss"


class MultiObjectError(TaskFailure):
    code = "multi-object"


class NothingHeldError(TaskFailure):
    code = "nothing-held"


class NoContactError(TaskFailure):
    code = "no-contact"
