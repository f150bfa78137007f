"""Command-line interface.

Subcommands: ``scene gen``, ``grasp detect``, ``stack run``,
``assemble run``, ``pose-bench``, ``report summarize``. Exit codes: 0 on
success, 1 on task or validation failure, 2 on I/O errors. Human-readable
progress goes to stderr; ``--json`` puts the summary JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, RockstackError, ValidationError
from .geometry import open_atomic, write_depth_pgm, write_mask_pbm
from .graspdetect import detect_grasps
from .harness import (
    ExperimentConfig,
    dump_json,
    recompute_summary_from_files,
    run_experiment,
    summary_to_csv,
)
from .pointcloud import fit_plane_ransac, load_cloud_xyz
from .scenesim import NoisyDepth, generate_scene, scene_to_json_dict

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2


def _load_config(path: str | None, task: str) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig.from_json_dict({"task": task})
    file = Path(path)
    if not file.exists():
        raise FileNotFoundError(f"config file not found: {file}")
    with open(file, "r", encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict):  # from_json_dict rejects any other root
        data["task"] = task
    return ExperimentConfig.from_json_dict(data)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    if getattr(args, "samples", None) is not None:
        cfg = replace(cfg, samples=args.samples)
    return cfg


def _cmd_scene_gen(args) -> int:
    cfg = _apply_overrides(_load_config(args.config, "stack"), args)
    scene = generate_scene(cfg.scene, cfg.base_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(out / "scene.json", scene_to_json_dict(scene))
    if args.dump_images:
        view = NoisyDepth(scene, scene.base_camera, cfg.sensor, cfg.base_seed)
        view.cast(np.arange(view.depth.size))
        write_depth_pgm(out / "depth_base.pgm", view.depth)
        for mask in view.masks():
            write_mask_pbm(out / f"mask_{mask.instance_id}.pbm", mask)
    print(f"scene written to {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_grasp_detect(args) -> int:
    cfg = _apply_overrides(_load_config(args.config, "grasp_bench"), args)
    cloud_path = Path(args.cloud)
    if not cloud_path.exists():
        raise FileNotFoundError(f"cloud file not found: {cloud_path}")
    cloud = load_cloud_xyz(cloud_path)
    grasp_cfg = replace(cfg.grasp, seed=cfg.base_seed)
    plane, _ = fit_plane_ransac(cloud, iters=200, tol=4.0, seed=cfg.base_seed)
    center = cloud.points.mean(axis=0)
    viewpoint = (float(center[0]), float(center[1]), float(center[2]) + 500.0)
    grasps = detect_grasps(cloud, cfg.hand, grasp_cfg, plane, viewpoint=viewpoint)
    payload = {"n_grasps": len(grasps), "grasps": [g.to_json_dict() for g in grasps]}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump_json(out / "grasps.json", {"grasps": payload["grasps"]})
        print(f"grasps written to {out / 'grasps.json'}", file=sys.stderr)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if grasps else EXIT_FAILURE


def _run_task(args, task: str) -> int:
    cfg = _apply_overrides(_load_config(args.config, task), args)
    out = Path(args.out) if args.out else None
    _, summary = run_experiment(
        cfg, out_dir=out, workers=args.workers, progress=sys.stderr
    )
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"{task}: {cfg.trials} trials, success rate {summary.success_rate:.2%}",
            file=sys.stderr,
        )
    return EXIT_FAILURE if summary.success_rate == 0.0 else EXIT_OK


def _cmd_report_summarize(args) -> int:
    in_dir = Path(args.in_dir)
    if not in_dir.exists():
        raise FileNotFoundError(f"report directory not found: {in_dir}")
    summary = recompute_summary_from_files(in_dir)
    if args.csv:
        with open_atomic(args.csv, "w", encoding="utf-8") as f:
            f.write(summary_to_csv(summary))
        print(f"csv written to {args.csv}", file=sys.stderr)
    if args.json or not args.csv:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rockstack",
        description="Deterministic grasp-detection and manipulation benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials=True):
        p.add_argument("--config", default=None, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="base seed override")
        p.add_argument("--out", default=None, help="output directory")
        if trials:
            p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--workers", type=int, default=1, help="parallel trial workers")
        p.add_argument("--json", action="store_true", help="summary JSON on stdout")

    scene = sub.add_parser("scene", help="synthetic scene tools")
    scene_sub = scene.add_subparsers(dest="scene_command", required=True)
    scene_gen = scene_sub.add_parser("gen", help="generate a seeded scene")
    scene_gen.add_argument("--config", default=None)
    scene_gen.add_argument("--seed", type=int, default=None)
    scene_gen.add_argument("--out", required=True)
    scene_gen.add_argument(
        "--dump-images", action="store_true", help="also write depth PGM and mask PBMs"
    )
    scene_gen.set_defaults(func=_cmd_scene_gen)

    grasp = sub.add_parser("grasp", help="grasp detection tools")
    grasp_sub = grasp.add_subparsers(dest="grasp_command", required=True)
    grasp_detect = grasp_sub.add_parser("detect", help="detect grasps on a cloud file")
    grasp_detect.add_argument("--cloud", required=True, help="ASCII xyz cloud file")
    grasp_detect.add_argument("--config", default=None)
    grasp_detect.add_argument("--seed", type=int, default=None)
    grasp_detect.add_argument("--out", default=None)
    grasp_detect.set_defaults(func=_cmd_grasp_detect)

    stack = sub.add_parser("stack", help="rock stacking benchmark")
    stack_sub = stack.add_subparsers(dest="stack_command", required=True)
    stack_run = stack_sub.add_parser("run", help="run stacking trials")
    add_common(stack_run)
    stack_run.set_defaults(func=lambda a: _run_task(a, "stack"))

    assemble = sub.add_parser("assemble", help="part assembly benchmark")
    assemble_sub = assemble.add_subparsers(dest="assemble_command", required=True)
    assemble_run = assemble_sub.add_parser("run", help="run assembly trials")
    add_common(assemble_run)
    assemble_run.set_defaults(func=lambda a: _run_task(a, "assemble"))

    pose = sub.add_parser("pose-bench", help="pose stability benchmark")
    add_common(pose, trials=True)
    pose.add_argument("--samples", type=int, default=None, help="measurements per trial")
    pose.set_defaults(func=lambda a: _run_task(a, "pose_stability"))

    report = sub.add_parser("report", help="report tools")
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_sum = report_sub.add_parser("summarize", help="recompute a summary from trial files")
    report_sum.add_argument("--in", dest="in_dir", required=True, help="directory of trial_*.json")
    report_sum.add_argument("--csv", default=None, help="write a class-by-metric CSV here")
    report_sum.add_argument("--json", action="store_true")
    report_sum.set_defaults(func=_cmd_report_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValidationError, RockstackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
