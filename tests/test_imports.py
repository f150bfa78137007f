"""Modules the library loads on first use, checked in fresh interpreters.

``import rockstack`` loads neither scipy nor the process pool. Four
functions import scipy where they need it (``estimate_normals``,
``check_stack_stability``, ``degrade_mask`` and ``Superellipsoid.volume``),
and ``run_experiment`` imports the pool only for ``workers > 1``. A pose
trial and the ``report`` commands therefore never load them. Each test
starts its own interpreter, because the test process has loaded scipy long
before it gets here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DEFERRED = ("scipy", "multiprocessing", "concurrent.futures.process")

POSE_RUN_AND_REPORT = """
import sys
from pathlib import Path
import rockstack
from rockstack.cli import main

cfg = rockstack.ExperimentConfig.from_json_dict(
    {"task": "pose_stability", "trials": 1, "samples": 40, "sensor": {"depth_sigma": 2.0}}
)
out = Path(sys.argv[1])
reports, _ = rockstack.run_experiment(cfg, out_dir=out)
assert reports[0].success
assert main(["report", "summarize", "--in", str(out), "--csv", str(out / "summary.csv")]) == 0
print("\\n".join(sorted(sys.modules)))
"""

FIRST_CALLS = """
import json, sys
import rockstack
assert "scipy" not in sys.modules
from test_imports import first_calls
print(json.dumps(first_calls()))
"""


def _run(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` by a fresh interpreter that
    imports from ``src`` and ``tests``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def first_calls() -> dict:
    """Digests of one call to each function that imports scipy on first use."""
    import hashlib

    import numpy as np

    from rockstack.geometry import InstanceMask, RigidTransform
    from rockstack.pointcloud import PointCloud, estimate_normals
    from rockstack.scenesim import RockModel, SensorModel, degrade_mask
    from rockstack.shapes import Superellipsoid
    from rockstack.taskexec import check_stack_stability

    def digest(a: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    def sphere(z: float, instance_id: int) -> RockModel:
        pose = RigidTransform.from_translation((0.0, 0.0, z))
        return RockModel(Superellipsoid(25.0, 25.0, 25.0, 1.0, 1.0), pose, instance_id)

    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(200, 3)) * (30.0, 30.0, 2.0))
    bitmap = np.zeros((40, 40), dtype=bool)
    bitmap[10:30, 8:32] = True
    sensor = SensorModel(mask_erosion=0.2, boundary_flip_rate=0.1)
    return {
        "normals": digest(estimate_normals(cloud, k=10).normals),
        "stability": check_stack_stability(sphere(74.5, 1), sphere(25.0, 0)),
        "mask": digest(degrade_mask(InstanceMask(bitmap), sensor, seed=3).bitmap),
        "volume": float(Superellipsoid(10.0, 12.0, 14.0, 0.8, 1.2).volume).hex(),
    }


def test_pose_run_and_report_load_no_scipy_or_pool(tmp_path):
    loaded = _run(POSE_RUN_AND_REPORT, str(tmp_path)).split()
    assert "rockstack.harness" in loaded
    deferred = [m for m in loaded if any(m == d or m.startswith(d + ".") for d in DEFERRED)]
    assert deferred == []


def test_first_calls_load_scipy_and_match_this_process():
    assert json.loads(_run(FIRST_CALLS)) == first_calls()
