"""Batch command-line interface: config layering, outputs, exit codes."""

import csv
import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import celltrack.cli
from celltrack import evaluate, load_forest, load_ground_truth, save_forest
from celltrack.cli import (
    UsageError,
    build_configs,
    main,
    parse_scalar,
    read_config_file,
)
from conftest import make_chain, make_forest

SMALL_SIM = [
    "--set", "sim.frames=20",
    "--set", "sim.width=256",
    "--set", "sim.height=256",
    "--set", "sim.initial_cells=5",
    "--set", "sim.division_prob=0.02",
    "--set", "sim.death_prob=0.02",
    "--set", "sim.treatment_frame=5",
]

NOISY = [
    "--set", "sim.box_jitter_sigma=1.0",
    "--set", "sim.drop_prob=0.05",
    "--set", "sim.false_positive_rate=0.2",
    "--set", "sim.embedding_noise_sigma=0.5",
]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--out", str(out), "--seed", "3", *SMALL_SIM]) == 0
    return out


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    args = ["simulate", "--out", str(out), "--count", "2", "--seed", "5"]
    assert main(args + SMALL_SIM + NOISY) == 0
    return out


class TestScalarParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true", True),
            ("False", False),
            ("none", None),
            ("null", None),
            ("42", 42),
            ("-3", -3),
            ("2.5", 2.5),
            ("1e-3", 0.001),
            ("heritable", "heritable"),
        ],
    )
    def test_values(self, text, expected):
        assert parse_scalar(text) == expected

    def test_int_stays_int(self):
        assert isinstance(parse_scalar("7"), int)


class TestConfigFiles:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "sim.frames = 30   # trailing comment\n"
            "tracker.memory_frames = 7\n"
        )
        values = read_config_file(str(path))
        assert values == {"sim.frames": "30", "tracker.memory_frames": "7"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sim.frames 30\n")
        with pytest.raises(UsageError, match="bad.cfg:1"):
            read_config_file(str(path))

    def test_unreadable_file(self):
        with pytest.raises(UsageError):
            read_config_file("/nonexistent/run.cfg")


class TestConfigLayering:
    def test_defaults(self):
        tracker, sim, analysis = build_configs(None, None)
        assert tracker.tau_high == 0.45
        assert sim.frames == 234
        assert analysis.max_generation == 5

    def test_file_then_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "sim.frames = 30\nsim.initial_cells = 4\n"
            "sim.treatment_frame = 10\n"
        )
        _, sim, _ = build_configs(str(path), ["sim.frames=40"])
        assert sim.frames == 40  # --set beats the file
        assert sim.initial_cells == 4

    def test_sections_are_routed(self):
        tracker, sim, analysis = build_configs(
            None,
            ["tracker.memory_frames=9", "sim.seed=11",
             "analysis.max_generation=3"],
        )
        assert tracker.memory_frames == 9
        assert sim.seed == 11
        assert analysis.max_generation == 3

    @pytest.mark.parametrize(
        "item",
        [
            "sim.bogus=1",  # unknown field
            "bogus.frames=1",  # unknown section
            "frames=1",  # missing section prefix
            "sim.frames",  # not key=value
            "tracker.embedding_dim=32",  # the tracker reads it off the data
        ],
    )
    def test_bad_keys(self, item):
        with pytest.raises(UsageError):
            build_configs(None, [item])

    @pytest.mark.parametrize("value", ["10", "0", "1e3", "none", "true"])
    def test_string_fields_keep_their_text(self, value, tmp_path):
        _, sim, _ = build_configs(
            None, [f"sim.dosage={value}", f"sim.video_id= {value} "]
        )
        assert sim.dosage == sim.video_id == value
        path = tmp_path / "run.cfg"
        path.write_text(f"sim.dosage = {value}  # comment\n")
        _, sim, _ = build_configs(str(path), None)
        assert sim.dosage == value

    def test_invalid_value_is_usage_error(self):
        with pytest.raises(UsageError):
            build_configs(None, ["sim.frames=0"])
        with pytest.raises(UsageError):
            build_configs(None, ["tracker.tau_high=2.0"])
        for item in (
            "tracker.tau_dist=nan",
            "tracker.memory_frames=nan",
            "tracker.process_noise=inf",
            "tracker.memory_frames=2.5",
            "sim.frames=20.5",
            "sim.seed=1.5",
            "sim.embedding_dim=2.5",
            "sim.fade_frames=nan",
            "sim.box_jitter_sigma=nan",
            "analysis.max_generation=nan",
            "tracker.use_kalman=2",
            "tracker.tau_dist=" + "9" * 400,
        ):
            with pytest.raises(UsageError):
                build_configs(None, [item])


class TestSimulateCommand:
    def test_single_video_layout(self, sim_dir):
        names = {p.name for p in sim_dir.iterdir()}
        assert names == {
            "manifest.json", "gt_tracks.txt", "gt_entries.txt",
            "clean.txt", "detections.txt",
        }
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 3
        assert manifest["config"]["sim"]["frames"] == 20
        assert manifest["count"] == 1

    def test_ground_truth_loads(self, sim_dir):
        forest = load_ground_truth(str(sim_dir / "gt"))
        assert forest.meta.frames == 20
        assert forest.meta.video_id == "video_000"
        roots = [t for t in forest.tracks.values() if t.parent is None]
        assert len(roots) == 5

    def test_multi_video_layout(self, corpus_dir):
        subdirs = sorted(
            p.name for p in corpus_dir.iterdir() if p.is_dir()
        )
        assert subdirs == ["video_000", "video_001"]
        for name in subdirs:
            video = corpus_dir / name
            assert (video / "detections.txt").exists()
            assert (video / "gt_tracks.txt").exists()
            forest = load_ground_truth(str(video / "gt"))
            assert forest.meta.video_id == name

    def test_per_video_seeds_differ(self, corpus_dir):
        a = (corpus_dir / "video_000" / "gt_entries.txt").read_text()
        b = (corpus_dir / "video_001" / "gt_entries.txt").read_text()
        assert a != b

    @pytest.mark.parametrize("dosage", ["10", "0"])
    def test_numeric_looking_dosage_is_written(self, tmp_path, dosage):
        out = tmp_path / "o"
        args = ["simulate", "--out", str(out), *SMALL_SIM,
                "--set", f"sim.dosage={dosage}"]
        assert main(args) == 0
        for name in ("gt_tracks.txt", "detections.txt"):
            assert f"#dosage={dosage}\n" in (out / name).read_text()
        assert load_ground_truth(str(out / "gt")).meta.dosage == dosage

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        args = ["simulate", "--out", str(again), "--seed", "3", *SMALL_SIM]
        assert main(args) == 0
        for name in ("gt_tracks.txt", "gt_entries.txt", "clean.txt",
                     "detections.txt"):
            assert (again / name).read_bytes() == (
                sim_dir / name
            ).read_bytes()


class TestTrackCommand:
    def test_track_and_evaluate_roundtrip(self, sim_dir, tmp_path, capsys):
        tracked = tmp_path / "tracked"
        rc = main(
            ["track", str(sim_dir / "detections.txt"), "--out", str(tracked)]
        )
        assert rc == 0
        assert "tracked" in capsys.readouterr().out
        assert (tracked / "pred_tracks.txt").exists()
        assert (tracked / "pred_entries.txt").exists()

        scored = tmp_path / "scores"
        rc = main(
            [
                "evaluate", str(tracked / "pred"), str(sim_dir / "gt"),
                "--out", str(scored),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "TRA" in out
        flat = json.loads((scored / "metrics.json").read_text())
        # Corruption defaults to zero in SMALL_SIM: tracking is exact.
        assert flat["det"] == flat["lnk"] == flat["tra"] == 1.0
        assert (scored / "metrics.txt").exists()

        # The written report matches a direct library evaluation.
        pred = load_forest(str(tracked / "pred"), strict=False)
        gt = load_ground_truth(str(sim_dir / "gt"))
        report = evaluate(pred, gt)
        assert flat["hota"] == pytest.approx(report.hota, abs=1e-12)
        assert flat["idf1"] == report.idf1

    def test_track_rerun_identical(self, sim_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        det = str(sim_dir / "detections.txt")
        assert main(["track", det, "--out", str(a)]) == 0
        assert main(["track", det, "--out", str(b)]) == 0
        for name in ("pred_tracks.txt", "pred_entries.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestAblateCommand:
    def test_variants_over_corpus(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "ablation"
        rc = main(
            [
                "ablate", str(corpus_dir), "--out", str(out),
                "--no-sweep", "--workers", "2",
            ]
        )
        assert rc == 0
        console = capsys.readouterr().out
        assert "full" in console and "neither" in console

        rows = list(csv.DictReader(open(out / "ablation.csv")))
        assert len(rows) == 8  # 4 variants x 2 videos
        variants = {r["configuration"] for r in rows}
        assert variants == {"full", "no_low_conf", "no_kalman", "neither"}
        assert {r["video"] for r in rows} == {"video_000", "video_001"}
        for r in rows:
            assert 0.0 <= float(r["tra"]) <= 1.0

        summary = list(csv.DictReader(open(out / "ablation_summary.csv")))
        assert len(summary) == 4
        assert all(r["videos"] == "2" for r in summary)

    def test_single_video_directory(self, sim_dir, tmp_path):
        out = tmp_path / "one"
        rc = main(["ablate", str(sim_dir), "--out", str(out), "--no-sweep"])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "ablation.csv")))
        assert len(rows) == 4
        # Zero-noise input: every variant tracks it perfectly.
        assert all(float(r["tra"]) == 1.0 for r in rows)

    def test_workers_do_not_change_tables(self, corpus_dir, tmp_path):
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            args = ["ablate", str(corpus_dir), "--out", str(out),
                    "--workers", workers]
            assert main(args) == 0
            tables.append([
                (out / name).read_bytes()
                for name in ("ablation.csv", "ablation_summary.csv")
            ])
        assert tables[0] == tables[1]
        rows = list(csv.DictReader(open(tmp_path / "workers1" / "ablation.csv")))
        assert len(rows) == (4 + 16) * 2  # (variants + memory lengths) x videos

    def test_full_rows_match_track_and_evaluate(self, corpus_dir, tmp_path):
        out = tmp_path / "ablation"
        assert main(["ablate", str(corpus_dir), "--out", str(out), "--no-sweep"]) == 0
        full = {
            r["video"]: r for r in csv.DictReader(open(out / "ablation.csv"))
            if r["configuration"] == "full"
        }
        assert sorted(full) == ["video_000", "video_001"]
        for name, row in full.items():
            video = corpus_dir / name
            tracked, scored = tmp_path / f"track_{name}", tmp_path / f"eval_{name}"
            track = ["track", str(video / "detections.txt"), "--out", str(tracked)]
            assert main(track) == 0
            assert main(["evaluate", str(tracked / "pred"), str(video / "gt"),
                         "--out", str(scored)]) == 0
            flat = json.loads((scored / "metrics.json").read_text())
            for key in ("det", "lnk", "tra"):
                assert row[key] == f"{flat[key]:.6f}"

    def test_each_video_parsed_once(self, corpus_dir, tmp_path, monkeypatch):
        parsed = []
        load = celltrack.cli.load_detections

        def counting_load(path):
            parsed.append(path)
            return load(path)

        monkeypatch.setattr(celltrack.cli, "load_detections", counting_load)
        assert main(["ablate", str(corpus_dir), "--out", str(tmp_path / "o")]) == 0
        assert sorted(parsed) == [
            str(corpus_dir / name / "detections.txt")
            for name in ("video_000", "video_001")
        ]

    def test_sweep_flag_recorded(self, sim_dir, tmp_path):
        out = tmp_path / "swept"
        rc = main(["ablate", str(sim_dir), "--out", str(out), "--no-sweep"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep_memory"] == []


class TestAnalyzeCommand:
    def test_outputs(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "analysis"
        prefixes = [
            str(corpus_dir / "video_000" / "gt"),
            str(corpus_dir / "video_001" / "gt"),
        ]
        rc = main(
            ["analyze", *prefixes, "--out", str(out), "--sample-size", "5"]
        )
        assert rc == 0
        assert "analyzed 2 forest(s)" in capsys.readouterr().out
        expected = {
            "event_rates.csv", "size_inheritance.csv",
            "sister_correlation.csv", "interdivision.csv",
            "division_profiles.csv", "manifest.json",
        }
        assert {p.name for p in out.iterdir()} == expected
        rates = list(csv.DictReader(open(out / "event_rates.csv")))
        assert {r["group"] for r in rates} == {"video_000", "video_001"}
        profiles = list(csv.DictReader(open(out / "division_profiles.csv")))
        assert profiles  # every gt lineage line ends at a real outcome

    def test_lineage_deeper_than_recursion_limit(self, tmp_path):
        prefix = str(tmp_path / "chain")
        save_forest(make_forest(*make_chain(1500)), prefix)
        out = tmp_path / "analysis"
        assert main(["analyze", prefix, "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "division_profiles.csv")))
        # One profile, one row per event: 1499 divisions, then censoring.
        assert len(rows) == 1500
        assert {r["divisions"] for r in rows} == {"1499"}


class TestExitCodes:
    def test_missing_detections(self, tmp_path):
        assert main(
            ["track", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        ) == 2

    def test_non_utf8_detections(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes((sim_dir / "detections.txt").read_bytes() + b"0,\xff\n")
        assert main(["track", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bad.txt: not UTF-8" in err
        assert "internal error" not in err

    def test_unknown_config_key(self, tmp_path):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.bogus=1"]
        assert main(args) == 2

    def test_invalid_config_value(self, tmp_path):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.frames=0"]
        assert main(args) == 2

    def test_negative_noise_scale(self, tmp_path, capsys):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.motion_sigma=-1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "motion_sigma must be >= 0" in err
        assert "internal error" not in err

    def test_simulator_range_rule(self, tmp_path, capsys):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.initial_size_spread=-20"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "initial_size_spread must be >= 0" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--count", "0"],
            ["simulate", "--count", "-2"],
            ["analyze", "GT", "--sample-size", "0"],
            ["track", "d.txt", "--workers", "0"],
        ],
    )
    def test_count_flags_must_be_positive(self, argv, sim_dir, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [str(sim_dir / "gt") if a == "GT" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()  # no manifest, no table

    def test_missing_forest_prefix(self, tmp_path):
        args = ["evaluate", str(tmp_path / "a"), str(tmp_path / "b"),
                "--out", str(tmp_path / "o")]
        assert main(args) == 2

    def test_ablate_without_corpus(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        args = ["ablate", str(empty), "--out", str(tmp_path / "o")]
        assert main(args) == 2

    @pytest.fixture
    def empty_gt_video(self, sim_dir, tmp_path):
        """A video directory whose ground-truth forest has no tracks."""
        video = tmp_path / "video"
        video.mkdir()
        (video / "detections.txt").write_bytes(
            (sim_dir / "detections.txt").read_bytes()
        )
        frames = load_ground_truth(str(sim_dir / "gt")).meta.frames
        save_forest(make_forest(frames=frames), str(video / "gt"))
        return video

    def test_evaluate_empty_ground_truth(self, empty_gt_video, tmp_path, capsys):
        gt = str(empty_gt_video / "gt")
        args = ["evaluate", gt, gt, "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert "ground truth has no objects" in capsys.readouterr().err

    def test_ablate_empty_ground_truth(self, empty_gt_video, tmp_path, capsys):
        args = ["ablate", str(empty_gt_video), "--out", str(tmp_path / "o"),
                "--no-sweep"]
        assert main(args) == 2
        assert "ground truth has no objects" in capsys.readouterr().err

    def test_frame_range_mismatch(self, sim_dir, tmp_path, capsys):
        video = tmp_path / "video"
        video.mkdir()
        text = (sim_dir / "detections.txt").read_text()
        assert "#frames=20\n" in text
        (video / "detections.txt").write_text(text.replace("#frames=20", "#frames=21"))
        for name in ("gt_tracks.txt", "gt_entries.txt"):
            (video / name).write_bytes((sim_dir / name).read_bytes())
        message = "frame-range mismatch: prediction covers 21 frames, ground truth 20"
        ablate = ["ablate", str(video), "--out", str(tmp_path / "a"), "--no-sweep"]
        assert main(ablate) == 2
        assert message in capsys.readouterr().err
        track = ["track", str(video / "detections.txt"), "--out", str(tmp_path / "t")]
        assert main(track) == 0
        evaluate = ["evaluate", str(tmp_path / "t" / "pred"), str(video / "gt"),
                    "--out", str(tmp_path / "e")]
        assert main(evaluate) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, header", [("detections.txt", "#width"), ("gt_tracks.txt", "#height")]
    )
    def test_non_finite_size_header(self, sim_dir, tmp_path, capsys, name, header):
        video = tmp_path / "video"
        video.mkdir()
        for fname in ("detections.txt", "gt_tracks.txt", "gt_entries.txt"):
            text = (sim_dir / fname).read_text()
            if fname == name:
                assert f"{header}=256.0\n" in text
                text = text.replace(f"{header}=256.0", f"{header}=nan")
            (video / fname).write_text(text)
        if name == "detections.txt":
            args = ["track", str(video / name), "--out", str(tmp_path / "o")]
        else:
            gt = str(video / "gt")
            args = ["evaluate", gt, gt, "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert f"{video / name}: {header} must be finite" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "celltrack" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["track", "d.txt"], ["evaluate", "pred", "gt"], ["ablate", "corpus"]],
    )
    def test_seed_only_where_read(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestManifestFirst:
    def test_manifest_written_even_when_input_missing(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["track", str(tmp_path / "gone.txt"), "--out", str(out)])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "track"
        assert str(tmp_path / "gone.txt") in manifest["inputs"]
        assert manifest["seed"] is None
        assert "embedding_dim" not in manifest["config"]["tracker"]

    @pytest.mark.parametrize(
        "command", ["simulate", "track", "evaluate", "ablate", "analyze"]
    )
    def test_config_file_is_an_input(self, command, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "sim.frames = 5\nsim.initial_cells = 2\nsim.treatment_frame = 2\n"
            "tracker.memory_frames = 3\nanalysis.max_generation = 2\n"
        )
        operands, seed, extra = {
            "simulate": (["--seed", "6"], 6, {"count": 1}),
            "track": ([str(sim_dir / "detections.txt")], None, {}),
            "evaluate": ([str(sim_dir / "gt"), str(sim_dir / "gt")], None, {}),
            "ablate": ([str(sim_dir), "--no-sweep"], None, {"sweep_memory": []}),
            "analyze": (
                [str(sim_dir / "gt"), "--seed", "4", "--sample-size", "7"],
                4,
                {"sample_size": 7},
            ),
        }[command]
        out = tmp_path / "o"
        argv = [command, *operands, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert str(cfg) in manifest["inputs"]
        assert manifest["seed"] == seed
        assert set(manifest) == {
            "tool", "version", "command", "seed", "inputs", "output_dir",
            "config", *extra,
        }
        assert {k: manifest[k] for k in extra} == extra

        tracker, sim, analysis = build_configs(str(cfg), None)
        if command == "simulate":
            sim = replace(sim, seed=6)
        assert manifest["config"] == json.loads(json.dumps({
            "tracker": asdict(tracker), "sim": asdict(sim),
            "analysis": asdict(analysis),
        }))
        assert manifest["config"]["tracker"]["memory_frames"] == 3
        assert manifest["config"]["sim"]["frames"] == 5
        assert manifest["config"]["analysis"]["max_generation"] == 2
