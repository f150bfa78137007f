"""Golden output-tree hashes: a refactor must leave seeded runs byte-identical.

Each config below runs through ``run_experiment`` and the SHA-256 of the
written tree (file names plus bytes, in name order) is compared with a
constant recorded on numpy 2.4.6 with OpenBLAS 0.3.31 (scipy 1.17.1,
Python 3.11), whose runtime dispatch picked its SkylakeX kernels (as
``scipy_openblas_get_corename64_`` reports). Two of the hashes depend on
that kernel, not only on the build. Forcing the same build onto its
Haswell or Sandybridge kernels (``OPENBLAS_CORETYPE``) moves
``assemble_head``; turning numpy's AVX-512 loops off
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``) moves
``stack_nominal_12``. The other five hold under all three settings, which
``test_kernels.py`` checks. Another numpy or BLAS build may still
move a hash without any code change.

A change that alters these outputs on purpose updates the hash it moves and
says in CHANGES.md which config moved and why. The whole file takes about
10 s.
"""

from __future__ import annotations

import pytest

from rockstack.harness import ExperimentConfig, run_experiment

from conftest import tree_hash

NOMINAL_SENSOR = {
    "depth_sigma": 2.0,
    "mask_erosion": 0.1,
    "boundary_flip_rate": 0.02,
    "dropout_rate": 0.01,
}

# seed 14 of stack_nominal_12 topples a rock; seeds 0 and 3 of
# assemble_leg end in joint-not-visible
CONFIGS = {
    "stack_nominal_0": {"task": "stack", "trials": 4, "base_seed": 0, "sensor": NOMINAL_SENSOR},
    "stack_nominal_12": {"task": "stack", "trials": 4, "base_seed": 12, "sensor": NOMINAL_SENSOR},
    "stack_sigma0": {"task": "stack", "trials": 4, "base_seed": 0},
    "assemble_head": {
        "task": "assemble",
        "trials": 4,
        "sensor": NOMINAL_SENSOR,
        "scene": {"rock_count": [0, 0], "parts": ["body", "head"]},
    },
    "assemble_leg": {
        "task": "assemble",
        "trials": 4,
        "sensor": NOMINAL_SENSOR,
        "scene": {"rock_count": [0, 0], "parts": ["body", "leg"]},
    },
    "grasp_bench": {"task": "grasp_bench", "trials": 4, "sensor": NOMINAL_SENSOR},
    "pose_stability": {
        "task": "pose_stability",
        "trials": 2,
        "samples": 200,
        "sensor": NOMINAL_SENSOR,
    },
}

GOLDEN = {
    "stack_nominal_0": "a9dbcbff672e6ed936c431941842470d5fa9e73deb1b900a49254976edd21cbe",
    "stack_nominal_12": "70a4dbac2d8499644b4670df5c56df214c21e885afb8d9004e46bd0edb520ee4",
    "stack_sigma0": "db81664dbfeaeb41954ea22d7aeb2d682c27c88ac1a32e71508f4b45041c50b3",
    "assemble_head": "50fb17e4310c0b3fe517000abcf55110b307b26bead481a65a820c47ad87bfa8",
    "assemble_leg": "f781f54297eea1cdadb69fa0df36fd4e7c0032e5fbcc9b20e090966ed39b8d4b",
    "grasp_bench": "8438f20581e29730fa41990c181eaab7b9b879d65cbf33ec99144c18f37888da",
    "pose_stability": "157b2c934ff234b55acec32c82b40c9c2b06818b43d4e134167700cc5743aa05",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_tree_matches_golden_hash(name, tmp_path):
    run_experiment(ExperimentConfig.from_json_dict(CONFIGS[name]), out_dir=tmp_path)
    assert tree_hash(tmp_path) == GOLDEN[name]
