"""Seeded outputs do not depend on the CPU kernels numpy picks.

numpy's bundled OpenBLAS is built with DYNAMIC_ARCH and picks its kernels
for the CPU at run time; ``OPENBLAS_CORETYPE`` forces another set, and
``NPY_DISABLE_CPU_FEATURES`` turns numpy's own AVX-512 loops off. Child
processes run under each of these settings (set on the children only) and
must give the bytes of this process: the base view and one wrist view per
object of seeded stack, assembly and pose scenes, rendered by
``render_scene_geometry``, and the output trees of the golden configs that
hold across kernels. The other two golden configs still move between
kernels (see ``test_golden.py``).

Skipped off x86-64, and where numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS.
The test takes about 10 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rockstack
from rockstack.geometry import camera_pose_from_lookat
from rockstack.harness import ExperimentConfig, run_experiment
from rockstack.scenesim import CameraSpec, generate_scene, render_scene_geometry

from conftest import tree_hash
from test_golden import CONFIGS

SETTINGS = [
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("OPENBLAS_CORETYPE", "Sandybridge"),
    ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),
]
RENDERED = ("stack_nominal_0", "assemble_head", "assemble_leg", "pose_stability")
STEADY_TREES = ("assemble_leg", "grasp_bench", "pose_stability", "stack_nominal_0", "stack_sigma0")


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def probe() -> dict:
    """SHA-256 per rendered config (seeds 0-2, the base view and a wrist
    view per object, depth and ids) and per steady golden output tree."""
    out = {}
    for name in RENDERED:
        h = hashlib.sha256()
        for seed in range(3):
            scene = generate_scene(ExperimentConfig.from_json_dict(CONFIGS[name]).scene, seed)
            cameras = [scene.base_camera]
            for obj in scene.objects():
                center, _ = obj.bounding
                eye = center + np.array([-120.0, -60.0, 250.0])
                cameras.append(CameraSpec(scene.hand_camera_intrinsics, camera_pose_from_lookat(eye, center)))
            for camera in cameras:
                depth, ids = render_scene_geometry(scene, camera)
                h.update(depth.tobytes())
                h.update(ids.tobytes())
        out[f"render {name}"] = h.hexdigest()
    for name in STEADY_TREES:
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(ExperimentConfig.from_json_dict(CONFIGS[name]), out_dir=Path(tmp))
            out[f"tree {name}"] = tree_hash(Path(tmp))
    return out


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _dynamic_openblas(),
    reason="needs x86-64 and numpy's DYNAMIC_ARCH OpenBLAS",
)
def test_outputs_hold_under_other_kernels():
    paths = [str(Path(rockstack.__file__).parents[1]), str(Path(__file__).parent)]
    base_env = {k: v for k, v in os.environ.items() if k not in dict(SETTINGS)}
    base_env["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = "import json, test_kernels; print(json.dumps(test_kernels.probe()))"
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env={**base_env, key: value},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for key, value in SETTINGS
    ]
    try:
        want = probe()
        for (key, value), child in zip(SETTINGS, children):
            stdout, stderr = child.communicate(timeout=600)
            assert child.returncode == 0, stderr
            got = json.loads(stdout.splitlines()[-1])
            moved = sorted(k for k in want if got.get(k) != want[k])
            assert not moved, f"{key}={value} moves {moved}"
    finally:
        for child in children:
            child.kill()
