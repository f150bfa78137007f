"""CLI subcommands, exit codes and output files."""

from __future__ import annotations

import json
import os

import pytest

from rockstack.cli import main
from rockstack.geometry import write_depth_pgm, write_mask_pbm
from rockstack.harness import dump_json
from rockstack.scenesim import SceneSpec, SensorModel, generate_scene, render_depth, render_instance_masks
from rockstack.taskexec import TrialLog

from conftest import box_cloud, write_cloud_xyz

QUICK_SCENE = {
    "rock_count": [2, 2],
    "rock_exponents": [0.7, 1.05],
    "rock_height_axis": [10, 18],
    "rock_semi_axis": [16, 30],
}


@pytest.fixture
def quick_config(tmp_path) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "scene": QUICK_SCENE}))
    return str(path)


class TestStackRun:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, quick_config, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "stack",
                "run",
                "--trials",
                "2",
                "--seed",
                "7",
                "--config",
                quick_config,
                "--out",
                str(out),
                "--json",
            ]
        )
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "trial_0.json").exists()
        assert (out / "trial_1.json").exists()
        stdout = capsys.readouterr().out
        summary = json.loads(stdout)
        assert summary["trials"] == 2
        assert 0.0 <= summary["success_rate"] <= 1.0

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(
            ["stack", "run", "--trials", "1", "--config", "/no/such/config.json", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_invalid_config_is_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scene": {"rock_count": [5, 2]}}))
        code = main(["stack", "run", "--trials", "1", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_non_object_config_is_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        code = main(["stack", "run", "--trials", "1", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.strip() == "error: expected a JSON object, got list"


class TestGraspDetect:
    def test_detect_on_box_cloud(self, tmp_path, capsys):
        cloud_path = tmp_path / "box.xyz"
        write_cloud_xyz(cloud_path, box_cloud(width=40.0, with_floor=True))
        code = main(["grasp", "detect", "--cloud", str(cloud_path), "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_grasps"] >= 1
        grasp = payload["grasps"][0]
        assert len(grasp["rotation"]) == 9
        assert len(grasp["translation"]) == 3
        assert 0.0 <= grasp["grasp_width"] <= 80.0

    def test_missing_cloud_is_io_error(self):
        assert main(["grasp", "detect", "--cloud", "/no/cloud.xyz"]) == 2

    def test_out_dir_receives_grasps_json(self, tmp_path):
        cloud_path = tmp_path / "box.xyz"
        write_cloud_xyz(cloud_path, box_cloud(width=40.0, with_floor=True))
        out = tmp_path / "g"
        code = main(
            ["grasp", "detect", "--cloud", str(cloud_path), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "grasps.json").exists()

    def test_grasps_json_round_trip(self, tmp_path, capsys):
        cloud_path = tmp_path / "box.xyz"
        write_cloud_xyz(cloud_path, box_cloud(width=40.0, with_floor=True))
        out = tmp_path / "g"
        code = main(
            ["grasp", "detect", "--cloud", str(cloud_path), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        text = (out / "grasps.json").read_text()
        assert payload["grasps"]
        assert json.loads(text) == {"grasps": payload["grasps"]}
        assert text.endswith("}\n")


class TestSceneGen:
    def test_writes_scene_and_images(self, tmp_path, quick_config):
        out = tmp_path / "scene"
        code = main(
            ["scene", "gen", "--config", quick_config, "--seed", "5", "--out", str(out), "--dump-images"]
        )
        assert code == 0
        assert (out / "scene.json").exists()
        assert (out / "depth_base.pgm").exists()
        masks = list(out.glob("mask_*.pbm"))
        assert masks
        data = json.loads((out / "scene.json").read_text())
        assert data["seed"] == 5
        assert len(data["rocks"]) == 2

    def test_dumped_images_are_the_whole_image_renders(self, tmp_path):
        sensor = {"depth_sigma": 2.0, "dropout_rate": 0.05}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, "scene": QUICK_SCENE, "sensor": sensor}))
        out = tmp_path / "scene"
        code = main(["scene", "gen", "--config", str(path), "--seed", "5", "--out", str(out), "--dump-images"])
        assert code == 0
        scene = generate_scene(SceneSpec.from_json_dict(QUICK_SCENE), 5)
        depth = render_depth(scene, scene.base_camera, SensorModel(**sensor), 5)
        write_depth_pgm(tmp_path / "depth.pgm", depth)
        assert (out / "depth_base.pgm").read_bytes() == (tmp_path / "depth.pgm").read_bytes()
        masks = render_instance_masks(scene, scene.base_camera)
        want = sorted(f"mask_{m.instance_id}.pbm" for m in masks)
        assert sorted(p.name for p in out.glob("mask_*.pbm")) == want
        for mask in masks:
            write_mask_pbm(tmp_path / "mask.pbm", mask)
            assert (out / f"mask_{mask.instance_id}.pbm").read_bytes() == (tmp_path / "mask.pbm").read_bytes()


class TestReportSummarize:
    def test_recompute_and_csv(self, tmp_path, quick_config, capsys):
        out = tmp_path / "r"
        assert (
            main(["stack", "run", "--trials", "1", "--seed", "3", "--config", quick_config, "--out", str(out)])
            == 0
        )
        csv_path = tmp_path / "summary.csv"
        code = main(["report", "summarize", "--in", str(out), "--csv", str(csv_path), "--json"])
        assert code == 0
        recomputed = json.loads(capsys.readouterr().out)
        written = json.loads((out / "summary.json").read_text())
        assert recomputed == written
        assert csv_path.read_text().startswith("object,")

    def test_missing_dir_is_io_error(self):
        assert main(["report", "summarize", "--in", "/no/reports"]) == 2

    def test_failed_csv_write_leaves_no_file(self, tmp_path, monkeypatch):
        reports = tmp_path / "r"
        reports.mkdir()
        for i in range(2):
            dump_json(reports / f"trial_{i}.json", TrialLog("stack", i).report(True).to_json_dict())

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["report", "summarize", "--in", str(reports), "--csv", str(tmp_path / "s.csv")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    @pytest.fixture
    def pose_run(self, tmp_path, capsys):
        out = tmp_path / "pose"
        args = ["pose-bench", "--trials", "3", "--seed", "2", "--samples", "20", "--out", str(out)]
        assert main(args) == 0
        assert main(["report", "summarize", "--in", str(out), "--json"]) == 0
        intact = capsys.readouterr().out
        assert json.loads(intact) == json.loads((out / "summary.json").read_text())
        return out

    @pytest.mark.parametrize(
        "name, message",
        [
            ("trial_0.json", "trial indices are not 0..1 (missing [0]"),
            ("trial_1.json", "trial indices are not 0..1 (missing [1]"),
            ("trial_2.json", "counts 3 trials, but 2 trial files exist"),
        ],
    )
    def test_missing_trial_file_fails(self, pose_run, capsys, name, message):
        (pose_run / name).unlink()
        assert main(["report", "summarize", "--in", str(pose_run)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"success": "false"}, "error: trial_1.json: success: expected true or false, got 'false'"),
            ({"trial_seed": "3"}, "error: trial_1.json: trial_seed: expected an integer, got '3'"),
            ({"bogus": 1}, "error: trial_1.json: bogus: unknown key"),
        ],
    )
    def test_malformed_trial_file_fails_by_field(self, pose_run, capsys, change, message):
        path = pose_run / "trial_1.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **change)))
        assert main(["report", "summarize", "--in", str(pose_run)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message

    def test_summary_with_another_trial_count_fails(self, pose_run, capsys):
        path = pose_run / "summary.json"
        summary = json.loads(path.read_text())
        path.write_text(json.dumps(dict(summary, trials=4)))
        assert main(["report", "summarize", "--in", str(pose_run)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "counts 4 trials, but 3 trial files exist" in captured.err


class TestAssembleRun:
    def test_single_trial(self, tmp_path, capsys):
        out = tmp_path / "asm"
        code = main(
            ["assemble", "run", "--trials", "1", "--seed", "1", "--out", str(out), "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["task"] == "assemble"
        assert "head" in summary["per_class"]
        assert (out / "trial_0.json").exists()


class TestPoseBench:
    def test_tiny_run(self, tmp_path, capsys):
        out = tmp_path / "pose"
        code = main(
            ["pose-bench", "--trials", "1", "--seed", "2", "--samples", "30", "--out", str(out), "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["task"] == "pose_stability"
        assert summary["pose_sigma_mm"]
