"""Batch command-line interface: config layering, outputs, exit codes."""

import csv
import json
import os
import resource
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import celltrack.cli
from celltrack import (
    Detection,
    DetectionFile,
    Track,
    TrackEntry,
    corrupt,
    evaluate,
    load_forest,
    save_detections,
    save_forest,
    simulate,
)
from celltrack.cli import (
    UsageError,
    build_configs,
    main,
    parse_scalar,
    read_config_file,
)
from conftest import bx, make_chain, make_forest, make_track


def run_limited(args, limit, timeout):
    """``celltrack`` in a child process, under an address-space limit and a
    timeout that apply to that child only."""
    src = Path(celltrack.cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "celltrack.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


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

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "sim.dosage = 10uM#2\n"
            "sim.video_id = a#b\t# tab before the comment\n"
            "   # indented comment\n"
        )
        values = read_config_file(str(path))
        assert values == {"sim.dosage": "10uM#2", "sim.video_id": "a#b"}
        from_file = build_configs(str(path), None).sim
        from_flags = build_configs(None, ["sim.dosage=10uM#2", "sim.video_id=a#b"]).sim
        assert from_file == from_flags

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
        forest = load_forest(str(sim_dir / "gt"))
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
            forest = load_forest(str(video / "gt"))
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
        assert load_forest(str(out / "gt")).meta.dosage == dosage

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        args = ["simulate", "--out", str(again), "--seed", "3", *SMALL_SIM]
        assert main(args) == 0
        for name in ("gt_tracks.txt", "gt_entries.txt", "clean.txt",
                     "detections.txt"):
            assert (again / name).read_bytes() == (
                sim_dir / name
            ).read_bytes()

    @staticmethod
    def corrupted_bytes(sets, seed, path):
        """The bytes ``save_detections(corrupt(...))`` writes for the video
        ``simulate --seed seed`` makes under ``sets``."""
        sim = replace(build_configs(None, sets).sim, seed=seed, video_id="video_000")
        result = simulate(sim)
        frames = corrupt(result.clean_frames, sim)
        save_detections(
            DetectionFile(result.ground_truth.meta, sim.embedding_dim, frames), str(path)
        )
        return path.read_bytes()

    def test_zero_corruption_writes_the_clean_bytes(self, sim_dir, tmp_path):
        written = (sim_dir / "detections.txt").read_bytes()
        assert written == (sim_dir / "clean.txt").read_bytes()
        reference = self.corrupted_bytes(SMALL_SIM[1::2], 3, tmp_path / "ref.txt")
        assert written == reference

    @pytest.mark.parametrize("setting", [
        "sim.box_jitter_sigma=0.5",
        "sim.drop_prob=0.05",
        "sim.false_positive_rate=0.2",
        "sim.embedding_noise_sigma=0.3",
    ])
    def test_one_corruption_setting_writes_corrupt_bytes(self, setting, tmp_path):
        # No assertion against clean.txt: a small drop_prob may fade nothing.
        out = tmp_path / "o"
        args = ["simulate", "--out", str(out), "--seed", "3", *SMALL_SIM,
                "--set", setting]
        assert main(args) == 0
        sets = [*SMALL_SIM[1::2], setting]
        reference = self.corrupted_bytes(sets, 3, tmp_path / "ref.txt")
        assert (out / "detections.txt").read_bytes() == reference

    def test_workers_do_not_change_corpus(self, corpus_dir, tmp_path):
        out = tmp_path / "pooled"
        args = ["simulate", "--out", str(out), "--count", "2", "--seed", "5",
                "--workers", "2"]
        assert main(args + SMALL_SIM + NOISY) == 0
        for name in ("video_000", "video_001"):
            files = sorted(p.name for p in (corpus_dir / name).iterdir())
            assert sorted(p.name for p in (out / name).iterdir()) == files
            for f in files:
                assert (out / name / f).read_bytes() == (
                    corpus_dir / name / f
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
        gt = load_forest(str(sim_dir / "gt"))
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

    @staticmethod
    def track_grid(tmp_path, cols, cells):
        """Track a 3-frame grid of ``cells`` 20-px cells, ``cols`` to a row
        at a 40-px pitch, drifting 1 px a frame, under a 2.5 GiB limit;
        returns the prediction's directory."""
        det = tmp_path / "grid.txt"
        rows = -(-cells // cols)
        det.write_text("\n".join([
            "#frames=3", f"#width={40.0 * cols + 40}", f"#height={40.0 * rows + 40}",
            "#embedding_dim=1",
            *(f"{f},{10.0 + 40 * (k % cols) + f},{10.0 + 40 * (k // cols)},20.0,20.0,0.9,alive,0.0"
              for f in range(3) for k in range(cells)),
        ]) + "\n")
        run = run_limited(
            ["track", str(det), "--out", str(tmp_path / "t")], int(2.5 * 2**30), timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert f"{cells} tracks" in run.stdout
        return str(tmp_path / "t" / "pred")

    @staticmethod
    def evaluate_against_itself(tmp_path, pred):
        run = run_limited(
            ["evaluate", pred, pred, "--out", str(tmp_path / "e")], int(2.5 * 2**30), timeout=60
        )
        assert run.returncode == 0, run.stderr
        flat = json.loads((tmp_path / "e" / "metrics.json").read_text())
        counts = {k: v for k, v in flat.items() if k.startswith("aogm_")}
        scores = {k: v for k, v in flat.items() if k not in counts}
        assert scores == dict.fromkeys(scores, 1.0)
        assert counts == dict.fromkeys(counts, 0.0)

    def test_twelve_thousand_cells_per_frame(self, tmp_path):
        # 120 columns.  Gating or pairing identities through full tracks x
        # detections arrays would need 1.07 GiB per 12000 x 12000 array.
        self.evaluate_against_itself(tmp_path, self.track_grid(tmp_path, 120, 12000))

    def test_twenty_thousand_cells_in_ten_columns(self, tmp_path):
        # Each track's 100-px x window holds 2 or 3 of the 10 columns of
        # 2,000 detections: 112,000,000 window pairs a frame unless y bands
        # cut them.
        self.track_grid(tmp_path, 10, 20000)

    def test_twenty_thousand_cells_in_25_columns_evaluate(self, tmp_path):
        # Each box's x-extent meets its own column's 800 boxes: 48,000,000
        # ground-truth x prediction pairs over the 3 frames unless y bands
        # cut them.
        self.evaluate_against_itself(tmp_path, self.track_grid(tmp_path, 25, 20000))


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


class TestForestFilesReadAsColumns:
    """``evaluate`` and ``ablate`` read forest files as columns straight
    into tracking graphs: they build no ``Track`` or ``TrackEntry``."""

    @staticmethod
    def spy(monkeypatch):
        """Record each ``Track`` and ``TrackEntry.trusted`` made from now on."""
        made = []
        init, trusted = Track.__init__, TrackEntry.trusted.__func__

        def spy_init(self, *args, **kwargs):
            made.append(Track)
            init(self, *args, **kwargs)

        def spy_trusted(cls, *args):
            made.append(TrackEntry)
            return trusted(cls, *args)

        monkeypatch.setattr(Track, "__init__", spy_init)
        monkeypatch.setattr(TrackEntry, "trusted", classmethod(spy_trusted))
        return made

    def test_evaluate(self, sim_dir, tmp_path, monkeypatch):
        tracked = tmp_path / "tracked"
        assert main(["track", str(sim_dir / "clean.txt"), "--out", str(tracked)]) == 0
        made = self.spy(monkeypatch)
        args = ["evaluate", str(tracked / "pred"), str(sim_dir / "gt"),
                "--out", str(tmp_path / "scores")]
        assert main(args) == 0
        assert made == []

    def test_ablate(self, corpus_dir, tmp_path, monkeypatch):
        # Each job is handed its video's ground truth, loaded before the
        # spy, as the prediction, so every score is 1.0.
        truth = {}
        for table in corpus_dir.glob("*/gt_tracks.txt"):
            forest = load_forest(str(table.parent / "gt"))
            truth[forest.meta.video_id] = forest
        monkeypatch.setattr(
            celltrack.cli, "track_video",
            lambda frames, config, meta: truth[meta.video_id],
        )
        made = self.spy(monkeypatch)
        args = ["ablate", str(corpus_dir), "--out", str(tmp_path / "o"),
                "--no-sweep", "--workers", "1"]
        assert main(args) == 0
        assert made == []
        rows = list(csv.DictReader(open(tmp_path / "o" / "ablation.csv")))
        assert len(rows) == 8 and all(float(r["tra"]) == 1.0 for r in rows)


class TestTrackingOnColumns:
    """``track`` and ``ablate`` track a detection file's columns into
    forest columns: they build no ``Detection``, ``Track`` or
    ``TrackEntry``."""

    @staticmethod
    def spy(monkeypatch):
        made = TestForestFilesReadAsColumns.spy(monkeypatch)
        trusted = Detection.trusted.__func__

        def spy_detection(cls, *args):
            made.append(Detection)
            return trusted(cls, *args)

        monkeypatch.setattr(Detection, "trusted", classmethod(spy_detection))
        return made

    def test_track(self, corpus_dir, tmp_path, monkeypatch):
        video = corpus_dir / "video_000"
        made = self.spy(monkeypatch)
        assert main(["track", str(video / "detections.txt"), "--out", str(tmp_path / "o")]) == 0
        assert made == []

    def test_ablate(self, corpus_dir, tmp_path, monkeypatch):
        made = self.spy(monkeypatch)
        args = ["ablate", str(corpus_dir), "--out", str(tmp_path / "o"), "--no-sweep"]
        assert main(args) == 0
        assert made == []


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

    def test_videos_of_one_dose_pool_into_one_block(self, tmp_path):
        corpus = tmp_path / "corpus"
        sim = ["--set", "sim.frames=60", "--set", "sim.width=300",
               "--set", "sim.height=300", "--set", "sim.initial_cells=6",
               "--set", "sim.division_prob=0.05", "--set", "sim.death_prob=0.01",
               "--set", "sim.treatment_frame=30", "--set", "sim.dosage=10uM"]
        assert main(["simulate", "--out", str(corpus), "--count", "2",
                     "--seed", "7", *sim]) == 0
        prefixes = [str(corpus / v / "gt") for v in ("video_000", "video_001")]

        # Generations past 3 hold too few pairs in one video for a defined
        # correlation, so only the pooled table would list them.
        def tables(name, *forests):
            out = tmp_path / name
            assert main(["analyze", *forests, "--out", str(out),
                         "--set", "analysis.min_track_frames=4",
                         "--set", "analysis.max_generation=3"]) == 0
            return {
                table: list(csv.DictReader(open(out / f"{table}.csv")))
                for table in ("event_rates", "size_inheritance",
                              "sister_correlation", "interdivision",
                              "division_profiles")
            }

        pooled = tables("pooled", *prefixes)
        alone = [tables(f"alone_{i}", p) for i, p in enumerate(prefixes)]
        for rows in pooled.values():
            assert rows and {r["group"] for r in rows} == {"10uM"}

        def by_key(rows, key, value):
            return {tuple(r[k] for k in key): int(r[value]) for r in rows}

        def summed(table, key, value):
            total: dict = {}
            for run in alone:
                for k, n in by_key(run[table], key, value).items():
                    total[k] = total.get(k, 0) + n
            return total

        bins = ("bin_start", "bin_end")
        for column in ("divisions", "deaths"):
            assert by_key(pooled["event_rates"], bins, column) == summed(
                "event_rates", bins, column
            )
        assert len(pooled["event_rates"]) == 6
        for i, row in enumerate(pooled["event_rates"]):
            assert float(row["mean_alive"]) == pytest.approx(
                sum(float(run["event_rates"][i]["mean_alive"]) for run in alone),
                abs=2e-3,
            )
        pair = ("kind", "ancestor_generation", "descendant_generation",
                "generation_gap")
        assert by_key(pooled["size_inheritance"], pair, "pairs") == summed(
            "size_inheritance", pair, "pairs"
        )
        assert by_key(pooled["interdivision"], ("generation",), "cycles") == (
            summed("interdivision", ("generation",), "cycles")
        )
        sisters = [run["sister_correlation"] for run in alone]
        assert pooled["sister_correlation"] == sisters[0] + sisters[1]
        assert {r["video"] for r in pooled["sister_correlation"]} == {
            "video_000", "video_001"
        }

    def test_one_video_given_twice(self, sim_dir, tmp_path, capsys):
        prefix = str(sim_dir / "gt")
        out = tmp_path / "analysis"
        assert main(["analyze", prefix, prefix, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(prefix) == 2
        assert "both video 'video_000'" in err
        assert "internal error" not in err

    def test_tables_are_utf8_under_an_ascii_locale(self, tmp_path):
        video = tmp_path / "video"
        args = ["simulate", "--out", str(video), "--set", "sim.dosage=10\u00b5M"]
        assert main(args + SMALL_SIM) == 0
        src = Path(celltrack.cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}
        env.update(
            LC_ALL="C",
            PYTHONCOERCECLOCALE="0",
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")])),
        )
        out = tmp_path / "analysis"
        run = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "celltrack.cli", "analyze",
             str(video / "gt"), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        rates = (out / "event_rates.csv").read_text(encoding="utf-8")
        assert "10\u00b5M" in rates

    def test_scipy_is_imported_only_to_score(self, sim_dir, tmp_path):
        src = Path(celltrack.cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        track = ["track", str(sim_dir / "detections.txt"), "--out", str(tmp_path / "t")]
        analyze = ["analyze", str(sim_dir / "gt"), "--out", str(tmp_path / "a")]
        # A forest scored against itself settles every best pair at every
        # threshold, so it needs no scipy.  Overlap counts 1-101 3, 1-102 2,
        # 2-101 2: both ground-truth tracks want track 101, so IDF1 needs
        # the assignment solver.
        b, far = bx(50, 50), bx(300, 300)
        save_forest(make_forest(make_track(1, 0, [b] * 5), make_track(2, 5, [b] * 2),
                                frames=7), str(tmp_path / "g"))
        save_forest(make_forest(make_track(101, 0, [b] * 3 + [far] * 2 + [b] * 2),
                                make_track(102, 3, [b] * 2), frames=7), str(tmp_path / "p"))
        clean = ["evaluate", str(sim_dir / "gt"), str(sim_dir / "gt"),
                 "--out", str(tmp_path / "c")]
        evaluate = ["evaluate", str(tmp_path / "p"), str(tmp_path / "g"),
                    "--out", str(tmp_path / "e")]
        script = (
            "import sys\n"
            "from celltrack.cli import main\n"
            "assert 'scipy' not in sys.modules\n"
            f"assert main({track!r}) == 0\n"
            f"assert main({analyze!r}) == 0\n"
            "assert 'scipy' not in sys.modules, 'track or analyze imported scipy'\n"
            f"assert main({clean!r}) == 0\n"
            "assert 'scipy' not in sys.modules, 'clean evaluate imported scipy'\n"
            f"assert main({evaluate!r}) == 0\n"
            "assert 'scipy' in sys.modules\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr

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
                "--set", "sim.box_jitter_sigma=-1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "box_jitter_sigma must be >= 0" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("rate", ["1e8", "1e19", "1e300", "1" + "0" * 30])
    def test_false_positive_rate_beyond_poisson_sampler(self, rate, tmp_path, capsys):
        # False positives are drawn one by one, so their expected number
        # per frame has a ceiling far below numpy's Poisson limit (~9.22e18).
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", f"sim.false_positive_rate={rate}", "--set", "sim.frames=3",
                "--set", "sim.initial_cells=2", "--set", "sim.treatment_frame=1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "false_positive_rate must be at most" in err
        assert "internal error" not in err

    def test_embedding_dim_ceiling(self, tmp_path, capsys):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.embedding_dim=1000000000", "--set", "sim.frames=3",
                "--set", "sim.treatment_frame=1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "embedding_dim must be at most 1024" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "sets, message",
        [
            (["sim.initial_cells=1000000000"], "initial_cells must be at most 20000"),
            (["sim.division_period=1", "sim.frames=40", "sim.initial_cells=10",
              "sim.treatment_frame=39"], "frame 11 would hold 20480 cells"),
        ],
    )
    def test_cells_per_frame_ceiling(self, sets, message, tmp_path):
        # Without the ceiling the first never ends and the second runs out
        # of memory, so the child runs under a limit and a timeout of its own.
        run = run_limited(
            ["simulate", "--out", str(tmp_path / "o"),
             *[arg for s in sets for arg in ("--set", s)]],
            limit=3 * 2**30, timeout=60,
        )
        assert run.returncode == 2, run.stderr
        assert message in run.stderr

    def test_simulator_range_rule(self, tmp_path, capsys):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.width=30"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "width and height must be >= the largest initial cell side" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "key",
        [
            "motion_sigma", "dead_motion_sigma", "latent_range",
            "latent_drift_sigma", "division_latent_sigma", "initial_size_mean",
            "initial_size_spread", "size_walk_sigma", "daughter_offset_frac",
            "tau_high", "tau_low",
        ],
    )
    def test_calibration_is_not_a_setting(self, key, tmp_path, capsys):
        # The simulator's calibration and fade bands are fixed in code.
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--set", f"sim.{key}=1"]) == 2
        assert f"unknown config key 'sim.{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_division_period_with_pulse(self, tmp_path, capsys):
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.division_period=6",
                "--set", "sim.division_pulse_frame=2"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "division_period or division_pulse_frame, not both" in err
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--seed", "-1"],
            ["simulate", "--count", "3", "--seed", "-2"],
            ["analyze", "GT", "--seed", "-1", "--sample-size", "1"],
        ],
    )
    def test_seed_flag_must_be_non_negative(self, argv, sim_dir, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [str(sim_dir / "gt") if a == "GT" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_field_too_wide_for_box_sizes(self, tmp_path, capsys):
        # At x ~ 1e299 a 30-pixel side is lost to rounding; every frame's
        # boxes are checked before any record is built.
        args = ["simulate", "--out", str(tmp_path / "o"),
                "--set", "sim.width=1e300", "--set", "sim.frames=5",
                "--set", "sim.initial_cells=3", "--set", "sim.treatment_frame=1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "box size lost to rounding at its position" in err
        assert "internal error" not in err

    def test_negative_sim_seed(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--set", "sim.seed=-3"]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err
        assert "internal error" not in err
        assert not out.exists()

    def test_float_setting_rejects_boolean(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "t"
        args = ["track", str(sim_dir / "detections.txt"), "--out", str(out),
                "--set", "tracker.tau_dist=true"]
        assert main(args) == 2
        assert "tau_dist must be a finite number, got True" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [str(2**64), "1" + "0" * 30])
    def test_huge_integer_process_noise(self, value, sim_dir, tmp_path, capsys):
        args = ["track", str(sim_dir / "detections.txt"), "--out", str(tmp_path / "t"),
                "--set", f"tracker.process_noise={value}"]
        assert main(args) == 0
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", [str(2**64), "1" + "0" * 30])
    def test_huge_integer_measurement_noise(self, value, sim_dir, tmp_path, capsys):
        # New tracks start their filters with this variance.
        args = ["track", str(sim_dir / "detections.txt"), "--out", str(tmp_path / "t"),
                "--set", f"tracker.measurement_noise={value}"]
        assert main(args) == 0
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["sim.video_id=a\nb", "sim.dosage=1\ruM"])
    def test_line_break_in_header_text(self, item, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--out", str(out), "--set", item]) == 2
        err = capsys.readouterr().err
        assert "must not contain a line break" in err
        assert "internal error" not in err
        assert not out.exists()

    def test_box_size_lost_to_rounding(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        det.write_text(
            "#frames=2\n#width=64.0\n#height=64.0\n#embedding_dim=1\n"
            "0,1e200,1.0,5.0,5.0,0.9,alive,0.5\n1,1e200,1.0,5.0,5.0,0.9,alive,0.5\n"
        )
        assert main(["track", str(det), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "d.txt:5: box size lost to rounding at its position" in err

    def test_gap_box_lost_to_rounding(self, tmp_path, capsys):
        # A cell crossing x = 2**27 is missed for two frames: the box
        # interpolated over the gap has a position whose last bits its
        # right edge cannot hold.
        det = tmp_path / "d.txt"
        x = [2.0**27 - 20.0 + k for k in range(3)] + [2.0**27 - 5.0]
        det.write_text(
            "#frames=6\n#width=64.0\n#height=64.0\n#embedding_dim=1\n" + "".join(
                f"{f},{x!r},0.0,10.0,5.0,0.9,alive,0.0\n" for f, x in zip((0, 1, 2, 5), x)
            )
        )
        assert main(["track", str(det), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "box size lost to rounding at its position in (134217718.66652392," in err

    def test_overflowing_embedding_distance(self, tmp_path, capsys):
        # The L1 distance of the two embeddings overflows to inf.  With the
        # appearance term weighted 0 the death match costs its distance
        # term, not 0 * inf = NaN, and no overflow warning is raised.
        det = tmp_path / "d.txt"
        det.write_text(
            "#frames=2\n#width=64.0\n#height=64.0\n#embedding_dim=2\n"
            "0,10.0,10.0,5.0,5.0,0.9,alive,1e308,1e308\n"
            "1,11.0,10.0,5.0,5.0,0.9,dead,-1e308,-1e308\n"
        )
        out = tmp_path / "o"
        argv = ["track", str(det), "--out", str(out), "--set", "tracker.appearance_weight=0"]
        assert main(argv) == 0, capsys.readouterr().err
        assert (out / "pred_tracks.txt").read_text().splitlines()[-1] == "1,0,1,,death"

    @pytest.mark.parametrize("tid, code", [(2**63 - 1, 0), (2**63, 2), (10**20, 2)])
    def test_track_id_beyond_int64(self, tid, code, tmp_path, capsys):
        (tmp_path / "f_tracks.txt").write_text(
            f"#frames=2\n#width=64.0\n#height=64.0\n{tid},0,1,,end_of_video\n"
        )
        (tmp_path / "f_entries.txt").write_text(
            f"{tid},0,1.0,1.0,5.0,5.0,high,alive\n{tid},1,1.0,1.0,5.0,5.0,high,alive\n"
        )
        prefix = str(tmp_path / "f")
        args = ["evaluate", prefix, prefix, "--out", str(tmp_path / "o")]
        assert main(args) == code
        err = capsys.readouterr().err
        assert "internal error" not in err
        if code:
            assert f"f_tracks.txt:4: track id {tid} outside the signed 64-bit range" in err

    @pytest.mark.parametrize("role", ["gt", "pred", "analyze"])
    def test_forest_declaring_no_frames(self, role, sim_dir, tmp_path, capsys):
        # The frame count is never inferred from the entries.
        (tmp_path / "z_tracks.txt").write_text(
            "#frames=0\n#width=64.0\n#height=64.0\n1,50,50,,end_of_video\n"
        )
        (tmp_path / "z_entries.txt").write_text("1,50,1.0,1.0,5.0,5.0,high,alive\n")
        bad, good = str(tmp_path / "z"), str(sim_dir / "gt")
        out = ["--out", str(tmp_path / "o")]
        args = {
            "gt": ["evaluate", good, bad, *out],
            "pred": ["evaluate", bad, good, *out],
            "analyze": ["analyze", bad, *out],
        }[role]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'z_tracks.txt'}: frames must be positive, got 0" in err

    @pytest.mark.parametrize("role", ["track", "gt", "pred", "analyze"])
    def test_absurd_frame_count(self, role, sim_dir, tmp_path, capsys):
        # Readers hold one slot per declared frame: without the ceiling a
        # single-record file exhausts memory and exits 1.
        (tmp_path / "z_tracks.txt").write_text(
            "#frames=1000000000\n#width=64.0\n#height=64.0\n1,0,0,,end_of_video\n"
        )
        (tmp_path / "z_entries.txt").write_text("1,0,1.0,1.0,5.0,5.0,high,alive\n")
        (tmp_path / "z.txt").write_text(
            "#frames=1000000000\n#width=64.0\n#height=64.0\n#embedding_dim=1\n"
            "0,1.0,1.0,5.0,5.0,0.9,alive,0.5\n"
        )
        bad, good = str(tmp_path / "z"), str(sim_dir / "gt")
        out = ["--out", str(tmp_path / "o")]
        args, path = {
            "track": (["track", bad + ".txt", *out], "z.txt"),
            "gt": (["evaluate", good, bad, *out], "z_tracks.txt"),
            "pred": (["evaluate", bad, good, *out], "z_tracks.txt"),
            "analyze": (["analyze", bad, *out], "z_tracks.txt"),
        }[role]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert (
            f"{tmp_path / path}: frames must be at most 1000000, got 1000000000" in err
        )

    def test_missing_forest_prefix(self, tmp_path):
        args = ["evaluate", str(tmp_path / "a"), str(tmp_path / "b"),
                "--out", str(tmp_path / "o")]
        assert main(args) == 2

    def test_ablate_without_corpus(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        args = ["ablate", str(empty), "--out", str(tmp_path / "o")]
        assert main(args) == 2

    @pytest.mark.parametrize("nested", [False, True])
    def test_ablate_without_ground_truth(self, sim_dir, tmp_path, capsys, nested):
        # A video missing its ground truth is named before anything is
        # written, whether it is the corpus or one video inside it.
        video = tmp_path / "corpus" / "one" if nested else tmp_path / "one"
        video.mkdir(parents=True)
        (video / "detections.txt").write_bytes((sim_dir / "detections.txt").read_bytes())
        corpus = video.parent if nested else video
        out = tmp_path / "abl"
        assert main(["ablate", str(corpus), "--out", str(out), "--no-sweep"]) == 2
        assert f"missing ground truth next to {video}/detections.txt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def empty_gt_video(self, sim_dir, tmp_path):
        """A video directory whose ground-truth forest has no tracks."""
        video = tmp_path / "video"
        video.mkdir()
        (video / "detections.txt").write_bytes(
            (sim_dir / "detections.txt").read_bytes()
        )
        frames = load_forest(str(sim_dir / "gt")).meta.frames
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
        message = "frame count mismatch: gt 20 vs pred 21"
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

    def test_inputs_keep_command_line_order(self, corpus_dir, tmp_path):
        # analyze pools a group's forests in this order.
        a, b = (str(corpus_dir / v / "gt") for v in ("video_000", "video_001"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("analysis.max_generation = 2\n")
        for name, forests in (("ab", [a, b]), ("ba", [b, a])):
            out = tmp_path / name
            argv = ["analyze", *forests, "--config", str(cfg), "--out", str(out)]
            assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["inputs"] == [*forests, str(cfg)]

    def test_analyze_records_its_default_seed(self, sim_dir, tmp_path):
        # Without --seed, analyze samples profiles with seed 0 and says so.
        gt = str(sim_dir / "gt")
        tables = {}
        for name, flags in (("default", []), ("zero", ["--seed", "0"])):
            out = tmp_path / name
            argv = ["analyze", gt, "--sample-size", "5", *flags, "--out", str(out)]
            assert main(argv) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == 0
            tables[name] = {f.name: f.read_bytes() for f in out.glob("*.csv")}
        assert len(tables["default"]) == 5
        assert tables["default"] == tables["zero"]

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
