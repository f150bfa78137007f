"""Per-layer spans recorded from outside the library.

The tracer wraps the public functions listed in ``TARGETS``. A wrapper is
installed in the defining module and in every ``rockstack`` module that
imported the name, so calls made through any of those bindings are timed;
``uninstall`` puts every original back. Spans stay in memory as tuples
``(name, start, end, parent, op)`` and are written out by the caller when
the run ends. Each op is a root span named ``op``; whatever part of it no
layer span covers is the op's unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stats import percentile

ROOT = "op"


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_render(counters, args, kwargs, result) -> None:
    depth = result[0]
    counters["scenesim.render.px"] += depth.size
    counters["scenesim.render.miss"] += depth.size - int(np.count_nonzero(np.isfinite(depth)))


def _count_rays(key: str):
    def probe(counters, args, kwargs, result) -> None:
        counters[key] += 0 if result is None else len(result)

    return probe


def _count_points(counters, args, kwargs, result) -> None:
    counters["pointcloud.cloud_from_depth.points"] += len(result)


def _count_candidates(counters, args, kwargs, result) -> None:
    n_points = len(_arg(args, kwargs, 0, "cloud"))
    cfg = _arg(args, kwargs, 2, "cfg")
    counters["graspdetect.generate_candidates.points_in"] += n_points
    counters["graspdetect.generate_candidates.candidates"] += len(result)
    counters["graspdetect.generate_candidates.slots"] += (
        min(cfg.num_samples, n_points) * cfg.num_orientations
    )


def _count_detect(counters, args, kwargs, result) -> None:
    # the task runners retry an empty detection once with the cone widened to 90 deg
    widened = _arg(args, kwargs, 2, "cfg").cone_half_angle_deg == 90.0
    counters["graspdetect.detect_grasps.retries" if widened else "graspdetect.detect_grasps.first"] += 1
    counters["graspdetect.detect_grasps.empty"] += len(result) == 0


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and the metric prefix."""

    module: str
    attr: str  # "function" or "Class.method"
    name: str
    probe: Callable | None = None


TARGETS = (
    Target("rockstack.scenesim", "generate_scene", "scenesim.generate_scene"),
    Target(
        "rockstack.scenesim", "render_scene_geometry", "scenesim.render_scene_geometry", _count_render
    ),
    Target("rockstack.scenesim", "render_instance_masks", "scenesim.render_instance_masks"),
    Target("rockstack.scenesim", "apply_depth_noise", "scenesim.apply_depth_noise"),
    Target(
        "rockstack.shapes",
        "Superellipsoid.raycast",
        "shapes.Superellipsoid.raycast",
        _count_rays("shapes.Superellipsoid.raycast.rays"),
    ),
    Target(
        "rockstack.shapes",
        "union_raycast",
        "shapes.union_raycast",
        _count_rays("shapes.union_raycast.rays"),
    ),
    Target("rockstack.pointcloud", "cloud_from_depth", "pointcloud.cloud_from_depth", _count_points),
    Target("rockstack.pointcloud", "fit_plane_ransac", "pointcloud.fit_plane_ransac"),
    Target("rockstack.pointcloud", "estimate_normals", "pointcloud.estimate_normals"),
    Target("rockstack.pointcloud", "crop_workspace", "pointcloud.crop_workspace"),
    Target("rockstack.pointcloud", "filter_above_plane", "pointcloud.filter_above_plane"),
    Target("rockstack.pointcloud", "voxel_downsample", "pointcloud.voxel_downsample"),
    Target("rockstack.graspdetect", "detect_grasps", "graspdetect.detect_grasps", _count_detect),
    Target(
        "rockstack.graspdetect",
        "generate_candidates",
        "graspdetect.generate_candidates",
        _count_candidates,
    ),
    Target("rockstack.graspdetect", "score_candidate", "graspdetect.score_candidate"),
    Target("rockstack.perception", "detect_objects", "perception.detect_objects"),
    Target("rockstack.perception", "object_workspace_pose", "perception.object_workspace_pose"),
    Target("rockstack.perception", "estimate_height", "perception.estimate_height"),
    Target("rockstack.taskexec", "run_stacking_task", "taskexec.run_stacking_task"),
    Target("rockstack.taskexec", "execute_grasp", "taskexec.execute_grasp"),
    Target("rockstack.taskexec", "place_on_stack", "taskexec.place_on_stack"),
    Target("rockstack.taskexec", "settle_object", "taskexec.settle_object"),
    Target("rockstack.taskexec", "check_stack_stability", "taskexec.check_stack_stability"),
    Target("rockstack.taskexec", "move_to", "taskexec.move_to"),
    Target(
        "rockstack.geometry", "RigidTransform.__post_init__", "geometry.RigidTransform.__post_init__"
    ),
    Target("rockstack.harness", "run_trial", "harness.run_trial"),
)


def _rockstack_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "rockstack" or name.startswith("rockstack."))
    ]


class Tracer:
    """Records spans while its wrappers are installed (inside ``op``)."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self._stack: list = []
        self._op = None
        self._patches: list = []

    def _wrap(self, target: Target, original):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (target.name, start, end, parent, self._op)
            # probes run after the span closes; their cost lands in the parent's self time
            if target.probe is not None:
                target.probe(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        defining_modules = [importlib.import_module(t.module) for t in TARGETS]
        modules = _rockstack_modules()
        for target, defining in zip(TARGETS, defining_modules):
            owner_name, _, leaf = target.attr.rpartition(".")
            if owner_name:
                # a method: the class object is shared by every importer
                owner = getattr(defining, owner_name)
                original = owner.__dict__[leaf]
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(target, original))
                continue
            original = getattr(defining, leaf)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: install wrappers, record the root span, uninstall."""
        self.install()
        try:
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            self._op = op_id
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (ROOT, start, end, -1, op_id)
                self._op = None
        finally:
            self.uninstall()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap and
    their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, counters: dict, n_ops: int) -> dict:
    """Per-layer metrics, ``<module>.<function>.<stat>``, normalised per op."""
    selfs = self_times(spans)
    calls: defaultdict = defaultdict(int)
    self_s: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    for (name, start, end, _, _), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        durations[name].append(end - start)

    def p(name: str, q: float, scale: float) -> float:
        return percentile(durations[name], q) * scale if durations[name] else 0.0

    out = {}
    for t in TARGETS:
        out[f"{t.name}.calls_per_op"] = calls[t.name] / n_ops
        out[f"{t.name}.self_ms_per_op"] = self_s[t.name] * 1e3 / n_ops
    c = defaultdict(float, counters)
    candidates = c["graspdetect.generate_candidates.candidates"]
    first = c["graspdetect.detect_grasps.first"]
    out.update(
        {
            "scenesim.render_scene_geometry.ms_p50": p("scenesim.render_scene_geometry", 50, 1e3),
            "scenesim.render.px_per_op": c["scenesim.render.px"] / n_ops,
            "scenesim.render.miss_share": _share(c["scenesim.render.miss"], c["scenesim.render.px"]),
            "shapes.Superellipsoid.raycast.rays_per_op": c["shapes.Superellipsoid.raycast.rays"] / n_ops,
            "shapes.union_raycast.rays_per_op": c["shapes.union_raycast.rays"] / n_ops,
            "pointcloud.cloud_from_depth.points_per_op": c["pointcloud.cloud_from_depth.points"] / n_ops,
            "graspdetect.detect_grasps.ms_p50": p("graspdetect.detect_grasps", 50, 1e3),
            "graspdetect.detect_grasps.ms_p90": p("graspdetect.detect_grasps", 90, 1e3),
            "graspdetect.generate_candidates.points_in": _share(
                c["graspdetect.generate_candidates.points_in"], calls["graspdetect.generate_candidates"]
            ),
            "graspdetect.generate_candidates.candidates_per_call": _share(
                candidates, calls["graspdetect.generate_candidates"]
            ),
            "graspdetect.generate_candidates.yield": _share(
                candidates, c["graspdetect.generate_candidates.slots"]
            ),
            "graspdetect.retry_share": _share(c["graspdetect.detect_grasps.retries"], first),
            "graspdetect.empty_share": _share(
                c["graspdetect.detect_grasps.empty"], calls["graspdetect.detect_grasps"]
            ),
            "perception.object_workspace_pose.us_p50": p("perception.object_workspace_pose", 50, 1e6),
        }
    )
    root_total = sum(end - start for name, start, end, _, _ in spans if name == ROOT)
    root_self = sum(own for (name, *_), own in zip(spans, selfs) if name == ROOT)
    out["bench.unattributed_ms_per_op"] = root_self * 1e3 / n_ops
    out["bench.span_coverage"] = 1.0 - _share(root_self, root_total)
    return out


_UNITS = (
    ("calls_per_op", "count", "lower"),
    ("self_ms_per_op", "ms", "lower"),
    ("unattributed_ms_per_op", "ms", "lower"),
    ("ms_p50", "ms", "lower"),
    ("ms_p90", "ms", "lower"),
    ("us_p50", "us", "lower"),
    ("_per_op", "count", "lower"),
    ("points_in", "count", "lower"),
    ("candidates_per_call", "count", "higher"),
    ("yield", "share", "higher"),
    ("span_coverage", "share", "higher"),
    ("_share", "share", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def unit_of(metric: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its stat suffix."""
    for suffix, unit, better in _UNITS:
        if metric.endswith(suffix):
            return unit, better
    raise KeyError(metric)
