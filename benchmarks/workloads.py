"""The benchmark's workloads: seeded inputs, the timed op, and its output check.

Every workload is a closed loop with one client: the next op starts when
the previous one returns. The workload seed picks the inputs; the library
only ever sees the generated inputs. Ops reach the library through module
attributes (``harness.run_trial``, ``graspdetect.detect_grasps``) so the
tracer's wrappers are used when they are installed.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from rockstack import graspdetect, harness
from rockstack.errors import PlacementError
from rockstack.geometry import camera_pose_from_lookat
from rockstack.graspdetect import GraspConfig, HandGeometry
from rockstack.pointcloud import Plane, PointCloud, Workspace, cloud_from_depth, fit_plane_ransac
from rockstack.scenesim import CameraSpec, SceneSpec, SensorModel, generate_scene, render_depth
from rockstack.taskexec import TrialReport

# Inputs of seed n are trials / scenes n * SEED_STRIDE + k; warm-up ops use
# k >= WARMUP_OFFSET, outside every timed set.
SEED_STRIDE = 1000
WARMUP_OFFSET = 900
WARMUP_OPS = 3

# acceptance criterion 7's nominal sensor
NOMINAL_SENSOR = {
    "depth_sigma": 2.0,
    "dropout_rate": 0.01,
    "mask_erosion": 0.1,
    "boundary_flip_rate": 0.02,
}
# Pose samples per trial: enough that the sample loop dominates the trial
# (about 70% of it) while a run still completes a dozen trials.
POSE_SAMPLES = 400
# Distinct clouds rendered for one grasp run; enough for the ten-sample rule
# at p90 and for the whole run length at today's speed.
GRASP_CLOUDS = 250


class CheckFailed(Exception):
    """An op returned output that breaks the workload's contract."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def placeable_scenes(spec: SceneSpec, seeds, skipped: list):
    """(seed, scene) for each seed whose scene can be generated.

    ``generate_scene`` places objects by rejection sampling and gives up
    with ``PlacementError`` on a few seeds. Such a seed makes no input:
    it is skipped and appended to ``skipped``, which the result file reports.
    """
    for seed in seeds:
        try:
            scene = generate_scene(spec, seed)
        except PlacementError:
            skipped.append(seed)
            continue
        yield seed, scene


def check_trial_report(out: dict) -> bool:
    """Crash-free and lossless through ``TrialReport`` JSON; returns success."""
    for phase in out["phases"]:
        code = phase.get("error_code") or ""
        _require(not code.startswith("exception:"), f"trial crashed: {code}")
    text = json.dumps(out, sort_keys=True)
    again = TrialReport.from_json_dict(json.loads(text)).to_json_dict()
    _require(json.dumps(again, sort_keys=True) == text, "report does not round-trip through JSON")
    return bool(out["success"])


def check_grasps(grasps: list, hand: HandGeometry, cfg: GraspConfig) -> bool:
    """Selection contract of ``detect_grasps``; returns whether any grasp came back."""
    _require(len(grasps) <= cfg.num_selected, f"{len(grasps)} grasps > num_selected")
    scores = [g.score for g in grasps]
    _require(all(a >= b for a, b in zip(scores, scores[1:])), "grasps not ordered by score")
    cos_cone = math.cos(math.radians(cfg.cone_half_angle_deg))
    down = np.array([0.0, 0.0, -1.0])
    for g in grasps:
        _require(float(g.approach @ down) >= cos_cone - 1e-9, "approach outside the cone")
        _require(0.0 < g.grasp_width <= hand.max_aperture + 1e-9, "width beyond max_aperture")
    return bool(grasps)


class TrialWorkload:
    """Each op is ``harness.run_trial(cfg, i).to_json_dict()`` for trial i."""

    def __init__(self, cfg_json: dict, seed: int):
        self.cfg = harness.ExperimentConfig.from_json_dict(
            dict(cfg_json, base_seed=seed * SEED_STRIDE)
        )
        self.skipped: list = []

    def _trials(self, indices):
        base = self.cfg.base_seed
        seeds = (base + i for i in indices)
        for seed, scene in placeable_scenes(self.cfg.scene, seeds, self.skipped):
            yield seed - base, scene

    def inputs(self):
        """Trial indices taking the scene's rock counts in turn (2, 3, 4, 2, ...).

        Trial time grows with the rock count, so a run of a few dozen trials
        drawn at random would shift its median with the seed's mix of scene
        sizes; taking the sizes in turn gives every run the same mix. The
        scenes are generated here only to read their rock count.
        """
        lo, hi = self.cfg.scene.rock_count
        pending: dict = {}
        scan = self._trials(range(WARMUP_OFFSET))
        for count in itertools.cycle(range(lo, hi + 1)):
            while not pending.get(count):
                i, scene = next(scan, (None, None))
                if i is None:
                    return
                pending.setdefault(len(scene.rocks), deque()).append(i)
            yield pending[count].popleft()

    def warmup_inputs(self):
        trials = self._trials(itertools.count(WARMUP_OFFSET))
        return [i for i, _ in itertools.islice(trials, WARMUP_OPS)]

    def op(self, index: int) -> dict:
        return harness.run_trial(self.cfg, index).to_json_dict()

    def check(self, index: int, out: dict) -> bool:
        return check_trial_report(out)

    def encode(self, out: dict) -> bytes:
        return json.dumps(out, sort_keys=True).encode()


@dataclass(frozen=True)
class GraspInput:
    cloud: PointCloud
    plane: Plane
    workspace: Workspace
    viewpoint: tuple
    cfg: GraspConfig


GRASP_SCENE = SceneSpec(rock_count=(1, 2))


def rock_scene_cloud(scene_seed: int, scene) -> GraspInput:
    """Two-view wrist cloud over the first rock of a seeded scene.

    Built the way acceptance criterion 3 builds its observation clouds.
    """
    cx, cy = scene.rocks[0].center_of_mass[:2]
    pts = []
    for i, dx in enumerate((-120.0, 120.0)):
        cam = CameraSpec(
            scene.hand_camera_intrinsics,
            camera_pose_from_lookat((cx + dx, cy, 330.0), (cx, cy, 0.0)),
        )
        depth = render_depth(scene, cam, SensorModel(), scene_seed * 31 + i)
        pts.append(cloud_from_depth(depth, cam.intrinsics, cam.pose).points)
    cloud = PointCloud(np.concatenate(pts), frame="robot")
    plane, _ = fit_plane_ransac(cloud, 200, 4.0, seed=scene_seed, max_points=2500)
    ws = Workspace((cx - 70, cy - 70, -60.0), (cx + 70, cy + 70, 400.0))
    return GraspInput(cloud, plane, ws, (cx, cy, 350.0), GraspConfig(seed=scene_seed))


class GraspWorkload:
    """Each op is one ``detect_grasps`` call on a cloud no other op uses."""

    hand = HandGeometry()

    def __init__(self, seed: int):
        base = seed * SEED_STRIDE
        self.skipped: list = []

        def clouds(first: int, n: int) -> list:
            scenes = placeable_scenes(GRASP_SCENE, itertools.count(base + first), self.skipped)
            return [rock_scene_cloud(s, scene) for s, scene in itertools.islice(scenes, n)]

        self.pool = clouds(0, GRASP_CLOUDS)
        self.warmups = clouds(WARMUP_OFFSET, WARMUP_OPS)

    def inputs(self):
        return iter(self.pool)

    def warmup_inputs(self):
        return self.warmups

    def op(self, x: GraspInput) -> list:
        return graspdetect.detect_grasps(x.cloud, self.hand, x.cfg, x.plane, x.workspace, x.viewpoint)

    def check(self, x: GraspInput, out: list) -> bool:
        return check_grasps(out, self.hand, x.cfg)

    def encode(self, out: list) -> bytes:
        return json.dumps([g.to_json_dict() for g in out], sort_keys=True).encode()


WORKLOADS = {
    "stack": lambda seed: TrialWorkload({"task": "stack", "sensor": NOMINAL_SENSOR}, seed),
    "grasp": GraspWorkload,
    "pose": lambda seed: TrialWorkload(
        {"task": "pose_stability", "samples": POSE_SAMPLES, "sensor": {"depth_sigma": 2.0}}, seed
    ),
}
