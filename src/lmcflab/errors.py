"""Exception types shared across the lab modules."""


class LabError(Exception):
    """Base class for all lmcflab errors."""


class DegenerateEdge(LabError):
    """A polyline edge has (numerically) zero length."""


class NonFiniteVertex(LabError):
    """A polyline vertex has a NaN or infinite coordinate."""


class NotExact(LabError):
    """A closed component has nonzero Liouville holonomy.

    Carries the measured holonomy so callers can inspect rationality data.
    """

    def __init__(self, holonomy, component_id=None):
        self.holonomy = float(holonomy)
        self.component_id = component_id
        msg = f"closed component has Liouville holonomy {self.holonomy:.6g}"
        if component_id is not None:
            msg += f" (component {component_id})"
        super().__init__(msg)

    def __reduce__(self):
        # the default rebuilds from args, the message, not the holonomy
        return type(self), (self.holonomy, self.component_id)


class BadFrame(LabError):
    """Supplied frame is not orthonormal within tolerance."""


class StabilityViolation(LabError):
    """Explicit flow step exceeds the parabolic stability bound."""


class SingularCollapse(LabError):
    """Minimum edge length collapsed below the singularity threshold."""


class RangeError(LabError):
    """Requested time window is not covered by the trajectory."""


class WindowInPast(LabError):
    """Gaussian window evaluated at a time t >= t0."""


class GrowthUnbounded(LabError):
    """A field violates its declared polynomial-growth certificate."""


class BoundaryTooTight(LabError):
    """Numeric stencil would exit the sampled grid."""


class EqualAngles(LabError):
    """Plane pair has equal Lagrangian angles; the span degenerates."""


class IllConditionedGram(LabError):
    """Gram matrix condition number exceeds the projection threshold."""


class ComponentAmbiguity(LabError):
    """Component extraction/labeling near the plane pair is not unique."""


class NoTransverseRadius(LabError):
    """No transverse slicing radius found after the allowed retries."""


class OpenSliceLoop(LabError):
    """Sphere-slice segments do not chain into closed loops of >= 3 points."""


class CurvesTooClose(LabError):
    """Slice curves are too close for a reliable linking integral."""


class RoundingAmbiguity(LabError):
    """Raw linking value is too far from the nearest integer."""


class ConfigInvalid(LabError):
    """Scenario configuration failed validation."""


class SchemaMismatch(LabError):
    """Two run bundles cannot be compared (different scenario/schema)."""


class SolverFailure(LabError):
    """Linear solve in a flow/heat step failed."""


class VertexCountChanged(LabError):
    """A component's vertex count differs between recorded states."""


class ComponentCountChanged(LabError):
    """The number of curve components differs between recorded states."""


class FieldShapeMismatch(LabError):
    """A field is not one (times, vertices) or (vertices,) array per component."""


class GaussSumTooLarge(LabError):
    """A Gauss linking sum has more edge pairs than its memory bound allows."""


class ScanTooLarge(LabError):
    """A quadratic segment-pair scan has more pairs than its memory bound allows."""


class WorkerDied(LabError):
    """A forked worker process exited without sending its results."""
