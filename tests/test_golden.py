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

# seeds 0, 1 and 3 of assemble_leg end in joint-not-visible
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
    "stack_nominal_0": "6733f429730dc2c4ac6685785ebda69ff9bdf99620c19cf80964243b4a2906bb",
    "stack_nominal_12": "cccccf85f6cefce85236dfd7a150fa07edebd213e2c104a28116d02569f964de",
    "stack_sigma0": "f810fd57c22a335f77bc2ccaf59b84259940d2140d19f02803968f7e43909b16",
    "assemble_head": "6ad2277fe8ee5ed5299d3d901564b5ffe0c810be8cfcab2b83570d2b75d106d5",
    "assemble_leg": "fb5c8ec85218835084a7e2c949fc488cf18665bcf4277771b81a2676ef396f2b",
    "grasp_bench": "30a7b156df1b4765298227d91e7cf591541a53916e85d3d03f80c09a5a912ac4",
    "pose_stability": "157b2c934ff234b55acec32c82b40c9c2b06818b43d4e134167700cc5743aa05",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_tree_matches_golden_hash(name, tmp_path):
    run_experiment(ExperimentConfig.from_json_dict(CONFIGS[name]), out_dir=tmp_path)
    assert tree_hash(tmp_path) == GOLDEN[name]
