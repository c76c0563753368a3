"""Outside-in tracer for lmcflab.

The tracer edits no lmcflab file. It rebinds the public functions named in
``SPANNED`` in every lmcflab module namespace that binds them (for example
``geometry.laplacian`` also lives in ``flowheat``), wraps ``DiscreteCurve``
methods on the class, and counts the sparse and banded solves that ``flow``
and ``flowheat`` make. Every wrapped call records a span
``(name, start, end, parent)``; spans stay in memory until the caller writes
them out. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "lmcflab"

# (module, attribute path) of every function that gets a span.
SPANNED = [
    ("linking", "linking_number"),
    ("linking", "sphere_slice"),
    ("linking", "surfaces_intersect"),
    ("linking", "halfspace_separation"),
    ("flowheat", "approx_height_solution"),
    ("flowheat", "caloric_primitive"),
    ("flowheat", "solve_heat_on_flow"),
    ("flowheat", "heat_residual"),
    ("geometry", "DiscreteCurve.tangents"),
    ("geometry", "DiscreteCurve.edge_lengths"),
    ("geometry", "DiscreteCurve.dual_lengths"),
    ("geometry", "laplacian"),
    ("geometry", "arc_gradient"),
    ("geometry", "lagrangian_angle"),
    ("geometry", "exactness_primitive"),
    ("geometry", "mean_curvature"),
    ("flow", "evolve"),
    ("flow", "step_flow"),
    ("flow", "product_evolve"),
    ("diagnostics", "monotonicity_audit"),
    ("diagnostics", "edge_gaussian_mass"),
    ("diagnostics", "weighted_gaussian_integral"),
    ("diagnostics", "gaussian_density_ratio"),
    ("diagnostics", "translator_fit"),
    ("drift", "hermite_basis"),
    ("drift", "drift_apply"),
    ("drift", "drift_apply_grid"),
    ("drift", "homogeneous_basis"),
    ("drift", "three_annulus_classify"),
    ("fixtures", "make_tilted_pair"),
    ("fixtures", "grim_reaper_sliding_trajectory"),
    ("fixtures", "shrinking_circle_trajectory"),
    ("fixtures", "grim_reaper_material_trajectory"),
    ("scenarios", "hausdorff_distance"),
]

# (module, function, counter): solver calls counted per calling lmcflab
# module, e.g. ``flow.splu_calls``; they get no span of their own.
COUNTED = [
    ("scipy.sparse.linalg", "splu", "splu_calls"),
    ("scipy.linalg", "solve_banded", "banded_calls"),
]

# sphere_slice nudges the radius by this step before each retry
SLICE_RADIUS_STEP = 0.003


def _loops(curve):
    """Loops of a linking argument: a slice, one (M, k) array or a list."""
    if hasattr(curve, "loops"):
        return list(curve.loops)
    if getattr(curve, "ndim", 0) == 2:
        return [curve]
    return list(curve)


def _components(state):
    return list(state) if isinstance(state, (list, tuple)) else [state]


def _n_vertices(state):
    """Vertices of a state; a curve x line product counts its curve factor."""
    return sum(len(getattr(c, "factor1", c).vertices) for c in _components(state))


def _n_triangles(mesh):
    quads = mesh[1] if isinstance(mesh, (tuple, list)) else mesh.quad_mesh()[1]
    return 2 * len(quads)


def _count_linking_number(work, args, result):
    points_a = sum(len(lp) for lp in _loops(args["c1"]))
    points_b = sum(len(lp) for lp in _loops(args["c2"]))
    work["linking.gauss_pairs"] += len(result.per_pole) * points_a * points_b
    work["linking.poles_used"] += len(result.per_pole)
    work["linking.poles_requested"] += args["n_poles"]


def _count_sphere_slice(work, args, result):
    work["linking.sphere_slice.retries"] += round(
        (result.radius - float(args["R"])) / SLICE_RADIUS_STEP)
    work["linking.slice_loops"] += len(result.loops)
    work["linking.slice_points"] += sum(len(lp) for lp in result.loops)


def _count_surfaces_intersect(work, args, result):
    work["linking.surfaces_intersect.triangles"] += (
        _n_triangles(args["mesh_a"]) + _n_triangles(args["mesh_b"]))


def _count_solve_heat_on_flow(work, args, result):
    work["flowheat.vertex_steps"] += sum(
        _n_vertices(s) for s in args["traj"].states[1:])


def _count_step_flow(work, args, result):
    work["flow.vertex_steps"] += _n_vertices(args["state"])


WORK_COUNTERS = {
    "linking.linking_number": _count_linking_number,
    "linking.sphere_slice": _count_sphere_slice,
    "linking.surfaces_intersect": _count_surfaces_intersect,
    "flowheat.solve_heat_on_flow": _count_solve_heat_on_flow,
    "flow.step_flow": _count_step_flow,
}

# every work count the counters above and COUNTED can record
WORK_METRICS = [
    "linking.gauss_pairs", "linking.poles_used", "linking.poles_requested",
    "linking.sphere_slice.retries", "linking.slice_loops",
    "linking.slice_points", "linking.surfaces_intersect.triangles",
    "flowheat.vertex_steps", "flow.vertex_steps",
    "flow.splu_calls", "flow.banded_calls",
    "flowheat.splu_calls", "flowheat.banded_calls",
]


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - union_length(children.get(i, ()), start, end)
            for i, (_, start, end, _) in enumerate(spans)]


class Tracer:
    """Spans, call counts and work counts of the wrapped lmcflab functions."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or None)
        self.calls = Counter()   # span name -> calls
        self.work = Counter()    # work-count name -> total
        self.missing = []        # targets this version of lmcflab lacks
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- installation --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module_name, path in SPANNED:
            name = f"{module_name}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            class_name, _, attr = path.rpartition(".")
            owner = getattr(module, class_name, None) if class_name else module
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._span_wrapper(name, original, WORK_COUNTERS.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                self._rebind(modules, original, wrapper)
        for module_name, func_name, counter in COUNTED:
            module = sys.modules.get(module_name)
            original = getattr(module, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._count_wrapper(counter, original)
            self._patch(module, func_name, original, wrapper)
            self._rebind(modules, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _rebind(self, modules, original, wrapper):
        """Rebind every lmcflab module-level name bound to ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn, counter):
        spans, stack, calls, work = self.spans, self._stack, self.calls, self.work
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                calls[name] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(work, bound.arguments, result)
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        work = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith(PACKAGE + "."):
                work[f"{caller[len(PACKAGE) + 1:]}.{counter}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------

    def self_time_by_name(self):
        totals = Counter()
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            totals[name] += own
        return totals

    def top_level_time(self, lo, hi):
        """Time within ``[lo, hi]`` covered by spans that have no parent."""
        return union_length([(s, e) for _, s, e, parent in self.spans
                             if parent is None], lo, hi)
