"""File formats: detection tables, forest serialization, error reporting."""

import math
import tempfile
from dataclasses import astuple
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from celltrack import (
    CellClass,
    Detection,
    DetectionFile,
    EndReason,
    LineageForest,
    Provenance,
    SimulationConfig,
    Track,
    TrackEntry,
    TrackerConfig,
    TrackStatus,
    ValidationError,
    VideoMeta,
    corrupt,
    load_detections,
    load_forest,
    save_detections,
    save_forest,
    simulate,
    track_video,
)
from celltrack import ingest
from celltrack.cli import main
from celltrack.core import MAX_FRAMES, _validate_box, valid_boxes
from celltrack.ingest import read_forest
from celltrack.metrics import LINK, PARENT, build_graph
from celltrack.tracker import _confidence_bands
from conftest import bx, make_forest, make_track
from oracles import forest_fault, forest_nodes_edges


def det(cx, cy, conf=0.9, cls=CellClass.ALIVE, emb=(0.0, 0.0, 0.0)):
    return Detection(
        box=bx(cx, cy),
        confidence=conf,
        cell_class=cls,
        embedding=np.array(emb, dtype=float),
    )


def write_detfile(path, records, dim=3, frames=4, extra_headers=()):
    lines = [
        "#video_id=v1",
        f"#frames={frames}",
        "#width=512.0",
        "#height=512.0",
        f"#embedding_dim={dim}",
        *extra_headers,
        *records,
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDetectionIO:
    def test_round_trip(self, tmp_path):
        dets = [
            det(10.25, 20.5, conf=0.9),
            det(40.0, 40.0, conf=0.3, cls=CellClass.DEAD, emb=(1.5, -2.25, 0.125)),
            det(11.0, 21.0, conf=1.0),
        ]
        df = DetectionFile(
            meta=VideoMeta(video_id="v1", frames=3, width=512, height=512, dosage="1uM"),
            embedding_dim=3,
            frames=[[dets[0], dets[1]], [], [dets[2]]],
        )
        path = tmp_path / "d.txt"
        save_detections(df, str(path))
        back = load_detections(str(path))
        assert back.meta.video_id == "v1"
        assert back.meta.dosage == "1uM"
        assert back.meta.frames == 3
        assert back.embedding_dim == 3
        # A record's frame is its list's position: the empty middle frame
        # stays empty and the last detection stays on frame 2.
        def fields(frames):
            return [
                [(d.box, d.confidence, d.cell_class, d.embedding.tolist())
                 for d in frame]
                for frame in frames
            ]

        assert fields(back.frames) == fields(df.frames)
        assert [len(f) for f in back.frames] == [2, 0, 1]
        assert not any(d.embedding.flags.writeable for d in chain(*back.frames))

    def test_source_id_is_line_number(self, tmp_path):
        path = write_detfile(
            tmp_path / "d.txt",
            ["0,1.0,1.0,5.0,5.0,0.9,alive,0.0,0.0,0.0"],
        )
        df = load_detections(path)
        # 5 header lines before the record.
        assert df.frames[0][0].source_id == 6

    def test_missing_header(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("#frames=2\n#width=10\n#height=10\n")
        with pytest.raises(ValidationError, match="embedding_dim"):
            load_detections(str(path))

    def test_frame_ceiling(self):
        # Both file kinds read their headers through _meta; checked there,
        # the boundary needs no file of a million empty frames.
        headers = {"frames": MAX_FRAMES, "width": 64.0, "height": 64.0}
        required = ("frames", "width", "height")
        assert ingest._meta(headers, "v.txt", required).frames == MAX_FRAMES
        headers["frames"] = MAX_FRAMES + 1
        with pytest.raises(
            ValidationError,
            match=f"v.txt: frames must be at most {MAX_FRAMES}, got {MAX_FRAMES + 1}",
        ):
            ingest._meta(headers, "v.txt", required)

    def test_wrong_field_count(self, tmp_path):
        path = write_detfile(tmp_path / "d.txt", ["0,1.0,1.0,5.0,5.0,0.9,alive,0.0"])
        with pytest.raises(ValidationError, match=r"d\.txt:6"):
            load_detections(path)

    def test_non_numeric_field(self, tmp_path):
        path = write_detfile(
            tmp_path / "d.txt", ["0,1.0,oops,5.0,5.0,0.9,alive,0.0,0.0,0.0"]
        )
        with pytest.raises(ValidationError, match=r"d\.txt:6"):
            load_detections(path)

    def test_unknown_class(self, tmp_path):
        path = write_detfile(
            tmp_path / "d.txt", ["0,1.0,1.0,5.0,5.0,0.9,zombie,0.0,0.0,0.0"]
        )
        with pytest.raises(ValidationError, match="zombie"):
            load_detections(path)

    def test_frame_out_of_range(self, tmp_path):
        path = write_detfile(
            tmp_path / "d.txt", ["9,1.0,1.0,5.0,5.0,0.9,alive,0.0,0.0,0.0"]
        )
        with pytest.raises(ValidationError, match="frame 9"):
            load_detections(path)

    def test_header_after_record(self, tmp_path):
        path = write_detfile(
            tmp_path / "d.txt",
            ["0,1.0,1.0,5.0,5.0,0.9,alive,0.0,0.0,0.0", "#late=1"],
        )
        with pytest.raises(ValidationError, match="header after"):
            load_detections(path)

    def test_bad_confidence_range(self, tmp_path):
        path = write_detfile(
            tmp_path / "d.txt", ["0,1.0,1.0,5.0,5.0,1.9,alive,0.0,0.0,0.0"]
        )
        with pytest.raises(ValidationError, match=r"d\.txt:6"):
            load_detections(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_detections("/nonexistent/nowhere.txt")


class TestConfidencePartition:
    def test_boundaries(self):
        conf = np.array([
            0.45,   # exactly tau_high -> high
            0.449,  # just below -> low
            0.25,   # exactly tau_low -> low
            0.249,  # just below -> dropped
            1.0,
            0.0,
        ])
        high, low = _confidence_bands(conf, TrackerConfig())
        assert conf[high].tolist() == [0.45, 1.0]
        assert conf[low].tolist() == [0.449, 0.25]


class TestForestIO:
    def sample_forest(self):
        parent = make_track(
            1,
            0,
            [bx(50.5, 50.25), bx(52, 50)],
            children=[2, 3],
            end_reason=EndReason.DIVISION,
        )
        d1 = make_track(
            2,
            2,
            [bx(46, 50), bx(45, 50), bx(44, 50)],
            parent=1,
            provenances=[
                Provenance.OBSERVED_HIGH,
                Provenance.INTERPOLATED,
                Provenance.OBSERVED_LOW,
            ],
            end_reason=EndReason.END_OF_VIDEO,
        )
        d2 = make_track(
            3,
            2,
            [bx(58, 50), bx(59, 50)],
            parent=1,
            classes=[CellClass.ALIVE, CellClass.DEAD],
            end_reason=EndReason.DEATH,
        )
        return make_forest(
            parent, d1, d2, frames=5, video_id="vid7", dosage="2uM"
        )

    def test_round_trip(self, tmp_path):
        forest = self.sample_forest()
        prefix = str(tmp_path / "f")
        tracks_path, entries_path = save_forest(forest, prefix)
        assert tracks_path.endswith("f_tracks.txt")
        assert entries_path.endswith("f_entries.txt")
        back = load_forest(prefix)
        assert back.meta.video_id == "vid7"
        assert back.meta.dosage == "2uM"
        assert back.meta.frames == 5
        assert set(back.tracks) == {1, 2, 3}
        assert back.tracks[2].parent == 1
        assert back.tracks[1].children == [2, 3]
        assert back.tracks[1].status is TrackStatus.DIVIDED
        assert back.tracks[3].status is TrackStatus.DEAD
        assert back.tracks[2].end_reason is EndReason.END_OF_VIDEO
        assert back.tracks[3].end_reason is EndReason.DEATH
        for tid, orig in forest.tracks.items():
            got = back.tracks[tid]
            assert sorted(got.entries) == sorted(orig.entries)
            for f, entry in orig.entries.items():
                assert got.entries[f].box == entry.box
                assert got.entries[f].cell_class is entry.cell_class
                assert got.entries[f].provenance is entry.provenance

    def test_loaded_entries_equal_the_in_memory_ones(self, tmp_path):
        # An in-memory forest holds exactly what its files hold: a tracked
        # noisy video and its ground truth load back field for field.
        cfg = SimulationConfig(
            frames=40,
            initial_cells=10,
            death_prob=0.05,
            treatment_frame=10,
            box_jitter_sigma=1.0,
            drop_prob=0.1,
            fade_frames=4.0,
            false_positive_rate=0.3,
            embedding_noise_sigma=0.5,
            seed=5,
        )
        sim = simulate(cfg)
        pred = LineageForest.from_columns(
            track_video(corrupt(sim.clean_frames, cfg), TrackerConfig())
        )
        provenances = set()
        for name, forest in (("pred", pred), ("gt", sim.ground_truth)):
            prefix = str(tmp_path / name)
            save_forest(forest, prefix)
            back = load_forest(prefix)
            assert back.tracks.keys() == forest.tracks.keys()
            for tid, track in forest.tracks.items():
                loaded = back.tracks[tid].entries
                assert loaded.keys() == track.entries.keys()
                for f, entry in track.entries.items():
                    assert astuple(loaded[f]) == astuple(entry)
                    provenances.add(entry.provenance)
        assert provenances == set(Provenance)

    def test_save_is_deterministic(self, tmp_path):
        forest = self.sample_forest()
        p1, e1 = save_forest(forest, str(tmp_path / "a"))
        p2, e2 = save_forest(forest, str(tmp_path / "b"))
        assert open(p1).read() == open(p2).read()
        assert open(e1).read() == open(e2).read()

    def test_missing_files(self, tmp_path):
        with pytest.raises(ValidationError, match="missing track table"):
            load_forest(str(tmp_path / "nope"))

    def test_gap_rejected_when_strict(self, tmp_path):
        forest = self.sample_forest()
        prefix = str(tmp_path / "f")
        save_forest(forest, prefix)
        entries_path = prefix + "_entries.txt"
        lines = open(entries_path).read().splitlines()
        # Remove daughter 2's middle entry (frame 3) to open a gap.
        lines = [
            ln for ln in lines if not ln.startswith("2,3,")
        ]
        open(entries_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            load_forest(prefix)

    def test_span_mismatch(self, tmp_path):
        forest = self.sample_forest()
        prefix = str(tmp_path / "f")
        save_forest(forest, prefix)
        entries_path = prefix + "_entries.txt"
        lines = [
            ln
            for ln in open(entries_path).read().splitlines()
            if not ln.startswith("2,4,")
        ]
        open(entries_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="declared span"):
            load_forest(prefix)

    def test_duplicate_track_id(self, tmp_path):
        forest = self.sample_forest()
        prefix = str(tmp_path / "f")
        save_forest(forest, prefix)
        tracks_path = prefix + "_tracks.txt"
        content = open(tracks_path).read()
        open(tracks_path, "a").write(content.splitlines()[-1] + "\n")
        with pytest.raises(ValidationError, match="duplicate track id"):
            load_forest(prefix)

    def test_entry_for_undeclared_track(self, tmp_path):
        forest = self.sample_forest()
        prefix = str(tmp_path / "f")
        save_forest(forest, prefix)
        entries_path = prefix + "_entries.txt"
        open(entries_path, "a").write("42,0,0.0,0.0,5.0,5.0,high,alive\n")
        with pytest.raises(ValidationError, match="undeclared track 42"):
            load_forest(prefix)

    def test_unknown_end_reason(self, tmp_path):
        forest = self.sample_forest()
        prefix = str(tmp_path / "f")
        save_forest(forest, prefix)
        tracks_path = prefix + "_tracks.txt"
        text = open(tracks_path).read().replace("end_of_video", "vanished")
        open(tracks_path, "w").write(text)
        with pytest.raises(ValidationError, match="vanished"):
            load_forest(prefix)

    def test_nonadjacent_division_needs_relaxed_load(self, tmp_path):
        parent = make_track(
            1, 0, [bx(50, 50)], children=[2], end_reason=EndReason.DIVISION
        )
        late = make_track(2, 3, [bx(40, 40)], parent=1)
        forest = make_forest(parent, late, frames=5)
        prefix = str(tmp_path / "f")
        save_forest(forest, prefix)
        with pytest.raises(ValidationError):
            load_forest(prefix)
        back = load_forest(prefix, strict=False)
        assert back.tracks[2].parent == 1


# ---------------------------------------------------------------------------
# One malformed line per field: every rejection names <file>:<line>

DET_LINES = [
    "#frames=4",
    "#width=64.0",
    "#height=64.0",
    "#embedding_dim=2",
    "0,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25",
]
TRACK_LINES = ["#frames=3", "#width=64.0", "#height=64.0", "1,0,1,,end_of_video"]
ENTRY_LINES = [
    "1,0,1.0,1.0,5.0,5.0,high,alive",
    "1,1,1.0,1.0,5.0,5.0,low,alive",
]
_FILES = {"d.txt": DET_LINES, "f_tracks.txt": TRACK_LINES, "f_entries.txt": ENTRY_LINES}


@pytest.mark.parametrize(
    "name, lineno, line, reason",
    [
        ("d.txt", 5, "x0,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25", "'x0'"),
        ("d.txt", 5, "0,1.0,1.0,wide,5.0,0.9,alive,0.5,0.25", "'wide'"),
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,sure,alive,0.5,0.25", "'sure'"),
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,0.9,alive,0.5,zero", "'zero'"),
        ("d.txt", 5, "0,1.0,1.0,5.0,-5.0,0.9,alive,0.5,0.25", "positive extent"),
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,0.9,alive,0.5,nan", "non-finite"),
        ("d.txt", 5, "0,1.0,1e308,5.0,1e308,0.9,alive,0.5,0.25", "box edge"),
        ("d.txt", 5, "0,1.0,1.0,1e200,1e200,0.9,alive,0.5,0.25", "area"),
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,0.9,alive,0.5", "expected 9 fields"),
        ("d.txt", 2, "#width", "malformed header"),
        ("d.txt", 4, "#embedding_dim=two", "'two'"),
        ("f_tracks.txt", 4, "x1,0,1,,end_of_video", "'x1'"),
        ("f_tracks.txt", 4, "1,s,1,,end_of_video", "'s'"),
        ("f_tracks.txt", 4, "1,0,1,p,end_of_video", "'p'"),
        ("f_tracks.txt", 4, "1,0,1,,vanished", "'vanished'"),
        ("f_tracks.txt", 4, "1,1,0,,end_of_video", "end 0 before start 1"),
        ("f_tracks.txt", 4, "9223372036854775808,0,1,,", "outside the signed 64-bit"),
        ("f_tracks.txt", 4, "-9223372036854775809,0,1,,", "outside the signed 64-bit"),
        ("f_tracks.txt", 4, "1,0,1,end_of_video", "expected 5 fields"),
        ("f_tracks.txt", 1, "#frames", "malformed header"),
        ("f_tracks.txt", 1, "#frames=three", "'three'"),
        ("f_entries.txt", 1, "e,0,1.0,1.0,5.0,5.0,high,alive", "'e'"),
        ("f_entries.txt", 1, "1,f,1.0,1.0,5.0,5.0,high,alive", "'f'"),
        ("f_entries.txt", 1, "1,0,1.0,tall,5.0,5.0,high,alive", "'tall'"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,5.0,guess,alive", "'guess'"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,5.0,high,zombie", "'zombie'"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,5.0,high", "expected 8 fields"),
        ("f_entries.txt", 1, "1,0,1e308,0.0,1e308,5.0,high,alive", "box edge"),
        ("d.txt", 5, "0,1e200,1.0,5.0,5.0,0.9,alive,0.5,0.25", "lost to rounding"),
        ("f_entries.txt", 1, "1,0,1.0,1e200,5.0,5.0,high,alive", "lost to rounding"),
        ("f_entries.txt", 2, "1,0,1.0,1.0,5.0,5.0,low,alive", "duplicate entry"),
        ("f_entries.txt", 1, "9223372036854775808,0,1.0,1.0,5.0,5.0,high,alive",
         "track id 9223372036854775808 outside the signed 64-bit range"),
        ("f_entries.txt", 1, "1,-9223372036854775809,1.0,1.0,5.0,5.0,high,alive",
         "frame -9223372036854775809 outside the signed 64-bit range"),
    ],
)
def test_record_rejection_names_file_and_line(tmp_path, name, lineno, line, reason):
    for fname, lines in _FILES.items():
        lines = list(lines)
        if fname == name:
            lines[lineno - 1] = line
        (tmp_path / fname).write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        if name == "d.txt":
            load_detections(str(tmp_path / name))
        else:
            load_forest(str(tmp_path / "f"))
    assert f"{name}:{lineno}:" in str(err.value)
    assert reason in str(err.value)


def test_rejection_cases_start_from_valid_files(tmp_path):
    for fname, lines in _FILES.items():
        (tmp_path / fname).write_text("\n".join(lines) + "\n")
    assert sum(map(len, load_detections(str(tmp_path / "d.txt")).frames)) == 1
    assert load_forest(str(tmp_path / "f")).tracks[1].span() == 2


def _loaded(name, tmp_path):
    """What loading the sample files gives: ``("ok", fields of every
    detection or track)`` or ``("error", message)``."""
    try:
        if name == "d.txt":
            df = load_detections(str(tmp_path / name))
            return "ok", [
                (f, d.box, d.confidence, d.cell_class,
                 d.embedding.tolist(), d.source_id)
                for f, frame in enumerate(df.frames)
                for d in frame
            ]
        forest = load_forest(str(tmp_path / "f"))
        return "ok", {
            tid: (t.parent, t.end_reason, t.children,
                  [(f, astuple(e)) for f, e in t.entries.items()])
            for tid, t in forest.tracks.items()
        }
    except ValidationError as exc:
        return "error", str(exc)


def _plain(name, line):
    """A record of ``name`` rewritten with each number as Python reads it."""
    ints, enums = ({0}, {6}) if name == "d.txt" else ({0, 1}, {6, 7})
    return ",".join(
        text if i in enums else str(int(text)) if i in ints else repr(float(text))
        for i, text in enumerate(line.split(","))
    )


@pytest.mark.parametrize(
    "name, lineno, line, kind",
    [
        # Python reads these numbers and numpy does not.
        ("d.txt", 5, "0,1_0.0,1.0,5.0,5.0,0.9,alive,0.5,0.25", "ok"),
        ("d.txt", 5, "\u0661,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25", "ok"),
        ("f_entries.txt", 1, "1,\u0660,1_0.0,1.0,5.0,5.0,high,alive", "ok"),
        # Both read these.
        ("d.txt", 5, "0,1.0,1.0, 20.0 ,5.0,0.9,alive,0.5,0.25", "ok"),
        ("d.txt", 5, "+3,1.0,1.0,5.0,5.0,0.9,alive,-0,+0.25", "ok"),
        ("f_entries.txt", 1, "+1,-0,1.0,1.0, 20.0 ,5.0,high,alive", "ok"),
        # Both reject these.
        ("d.txt", 5, "+4,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25", "error"),
        ("d.txt", 5, "1.0,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25", "error"),
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,nan,alive,0.5,0.25", "error"),
        ("d.txt", 5, "0,0x10,1.0,5.0,5.0,0.9,alive,0.5,0.25", "error"),
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,0.9, alive,0.5,0.25", "error"),
        ("d.txt", 5, "9223372036854775808,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25", "error"),
        ("f_entries.txt", 1, "9223372036854775808,0,1.0,1.0,5.0,5.0,high,alive", "error"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,inf,high,alive", "error"),
    ],
)
def test_column_and_record_paths_agree(tmp_path, name, lineno, line, kind):
    """The number grammar: a number field loads as Python's ``int()``
    (frame, track id) or ``float()`` reads it, whether numpy's pass or
    Python's reads the file, and a field Python rejects names its line."""
    def write(line):
        for fname, lines in _FILES.items():
            lines = list(lines)
            if fname == name:
                lines[lineno - 1] = line
            (tmp_path / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")

    write(line)
    loaded = _loaded(name, tmp_path)
    assert loaded[0] == kind, loaded
    if kind == "error":
        assert f"{name}:{lineno}:" in loaded[1]
        return
    write(_plain(name, line))
    assert _loaded(name, tmp_path) == loaded


@pytest.mark.parametrize("name", ["d.txt", "f_tracks.txt"])
def test_valid_records_load_by_columns(tmp_path, monkeypatch, name):
    """A valid detection file, and a valid forest's entries file, take one
    ``np.loadtxt`` call each: numpy's pass, never Python's readers."""
    for fname, lines in _FILES.items():
        (tmp_path / fname).write_text("\n".join(lines) + "\n")
    loadtxt, calls = np.loadtxt, []

    def spy(*args, **kwargs):
        calls.append(kwargs["converters"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert _loaded(name, tmp_path)[0] == "ok"
    assert len(calls) == 1
    assert float not in calls[0].values()


# Records numpy cannot read (``1_0.0``) among padded (`` 20.0 ``) and plain
# ones; the track table declares the entries' two tracks.
_MIXED = {
    "d.txt": DET_LINES[:4] + [
        "0,1_0.0,1.0,5.0,5.0,0.9,alive,0.5,0.25",
        "1,2.0,1.0, 20.0 ,5.0,0.8,dead,-0.5,1_5.0",
        "1,30.0,1.0,5.0,5.0,0.3,alive,0.0,0.0",
        "3,1.0,3_0.0,5.0,5.0,0.9,alive,0.5, 0.25 ",
    ],
    "f_tracks.txt": TRACK_LINES[:3] + ["1,0,2,,end_of_video", "2,1,2,,death"],
    "f_entries.txt": [
        "1,0,1_0.0,1.0,5.0,5.0,high,alive",
        "1,1, 11.0 ,1.0,5.0,5.0,low,alive",
        "2,1,30.0,1.0,5.0,5.0,high,alive",
        "1,2,1_2.0,1.0,5.0,5.0,interp,alive",
        "2,2,3_1.0,1.0, 5.0 ,5.0,high,dead",
    ],
}


@pytest.mark.parametrize("name", ["d.txt", "f_entries.txt"])
def test_python_reads_every_record_when_numpy_cannot(tmp_path, monkeypatch, name):
    """numpy's pass fails, so each record is read by Python's readers, and
    the rows of both the plain and the structured array join to load field
    for field as the plain rewrite."""
    files = {**_FILES, **_MIXED}
    loadtxt, calls = np.loadtxt, []

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    results, loads = [], []
    for rewrite in (False, True):
        for fname, lines in files.items():
            if rewrite and fname == name:
                lines = [ln if ln.startswith("#") else _plain(name, ln) for ln in lines]
            (tmp_path / fname).write_text("\n".join(lines) + "\n")
        calls.clear()
        results.append(_loaded(name, tmp_path))
        loads.append(list(calls))
    assert results[0][0] == "ok"
    assert results[0] == results[1]
    n = sum(not ln.startswith("#") for ln in files[name])
    assert loads == [[n] + [1] * n, [n]]


@pytest.mark.parametrize(
    "name, lines, lineno, reason",
    [
        ("d.txt", ["4,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25",
                   "0,1.0,1.0,-5.0,5.0,0.9,alive,0.5,0.25"], 5, "frame 4 outside [0, 4)"),
        ("d.txt", ["0,1.0,1.0,-5.0,5.0,0.9,alive,0.5,0.25",
                   "4,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25"], 5, "positive extent"),
        ("d.txt", ["0,1.0,1.0,5.0,5.0,0.9,alive,0.5,0.25",
                   "0,1.0,1.0,5.0,5.0,1.5,alive,0.5,0.25"], 6, "confidence 1.5"),
        ("f_entries.txt", ["1,0,1.0,1.0,5.0,5.0,high,alive", "1,0,1.0,1.0,5.0,5.0,low,alive",
                           "2,1,1.0,1.0,5.0,5.0,high,alive"], 2, "duplicate entry"),
        ("f_entries.txt", ["1,0,1.0,1.0,5.0,5.0,high,alive", "2,1,1.0,1.0,5.0,5.0,low,alive",
                           "1,0,1.0,1.0,5.0,5.0,high,alive"], 2, "undeclared track 2"),
        ("f_entries.txt", ["1,1,1.0,1.0,5.0,0.0,low,alive", "1,0,1.0,1.0,5.0,5.0,high,alive",
                           "1,1,1.0,1.0,5.0,5.0,low,alive"], 1, "positive extent"),
        ("f_tracks.txt", TRACK_LINES + ["2,0,1,,end_of_video,x"], 5,
         "expected 5 fields, got 6"),
    ],
)
def test_first_rejected_record_is_named(tmp_path, name, lines, lineno, reason):
    """Records that break different rules: the first of them is named."""
    files = dict(_FILES)
    files[name] = DET_LINES[:4] + lines if name == "d.txt" else lines
    for fname, content in files.items():
        (tmp_path / fname).write_text("\n".join(content) + "\n")
    kind, message = _loaded(name, tmp_path)
    assert kind == "error"
    assert message.startswith(f"{tmp_path / name}:{lineno}: ")
    assert reason in message


@pytest.mark.parametrize("name", ["d.txt", "f_tracks.txt"])
@pytest.mark.parametrize(
    "header", ["#width=nan", "#width=inf", "#height=-inf", "#height=1e999"]
)
def test_non_finite_size_header_is_rejected(tmp_path, name, header):
    for fname, lines in _FILES.items():
        lines = list(lines)
        if fname == name:
            key = header.partition("=")[0]
            lines = [header if ln.startswith(key + "=") else ln for ln in lines]
        (tmp_path / fname).write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        if name == "d.txt":
            load_detections(str(tmp_path / name))
        else:
            load_forest(str(tmp_path / "f"))
    assert f"{name}: {header.partition('=')[0]} must be finite" in str(err.value)


@pytest.mark.parametrize("name", ["d.txt", "f_tracks.txt", "f_entries.txt"])
def test_non_utf8_is_validation_error(tmp_path, name):
    for fname, lines in _FILES.items():
        data = ("\n".join(lines) + "\n").encode()
        if fname == name:
            data = data[:-2] + b"\xff\n"  # inside the last record
        (tmp_path / fname).write_bytes(data)
    with pytest.raises(ValidationError, match=f"{name}: not UTF-8"):
        if name == "d.txt":
            load_detections(str(tmp_path / name))
        else:
            load_forest(str(tmp_path / "f"))


# ---------------------------------------------------------------------------
# Codec properties: save -> load -> save is byte-stable, and any one-line
# mutation of a valid file is rejected.

CODEC_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def box_rule(b):
    """core._validate_box on a box of positive size: finite far edges and
    doubled area, and a size that survives rounding at its position."""
    x, y, w, h = b
    return (
        all(map(math.isfinite, (x + w, y + h, 2.0 * w * h)))
        and abs(x + w - x - w) <= 1e-9 * w
        and abs(y + h - y - h) <= 1e-9 * h
    )


# A position is drawn in units of its box's size, within a million sizes
# of the origin: most positions far from their size lose it to rounding,
# and filtering them out would reject most draws.
offset = st.floats(-1e6, 1e6)
boxes = (
    st.tuples(offset, offset, positive, positive)
    .map(lambda b: (b[0] * b[2], b[1] * b[3], b[2], b[3]))
    .filter(box_rule)
)
names = st.text(alphabet="abcXYZ019_-.", max_size=6)


@st.composite
def detection_files(draw):
    dim = draw(st.integers(1, 8))
    n_frames = draw(st.integers(1, 4))
    frames = [
        draw(st.lists(st.builds(
            Detection,
            box=boxes,
            confidence=st.floats(-0.0, 1.0),
            cell_class=st.sampled_from(CellClass),
            embedding=st.lists(finite, min_size=dim, max_size=dim).map(np.array),
        ), max_size=3))
        for _ in range(n_frames)
    ]
    meta = VideoMeta(
        video_id=draw(names),
        frames=n_frames,
        width=draw(positive),
        height=draw(positive),
        dosage=draw(names),
    )
    return DetectionFile(meta=meta, embedding_dim=dim, frames=frames)


@st.composite
def forests(draw):
    tracks: dict[int, Track] = {}
    for tid in range(1, draw(st.integers(1, 4)) + 1):
        rows = draw(st.lists(
            st.tuples(boxes, st.sampled_from(CellClass), st.sampled_from(Provenance)),
            min_size=1,
            max_size=4,
        ))
        rows.sort(key=lambda r: r[1] is CellClass.DEAD)  # dead is absorbing
        # Only an all-alive track may divide; a daughter starts right after.
        parents = [
            t for t in tracks.values()
            if all(e.cell_class is CellClass.ALIVE for e in t.entries.values())
        ]
        parent = draw(st.sampled_from([None, *parents]))
        start = draw(st.integers(0, 3)) if parent is None else parent.last_frame + 1
        if parent is not None:
            parent.children.append(tid)
        tracks[tid] = Track(
            track_id=tid,
            entries={
                start + i: TrackEntry(box=b, cell_class=c, provenance=p)
                for i, (b, c, p) in enumerate(rows)
            },
            parent=None if parent is None else parent.track_id,
            end_reason=draw(st.none() | st.sampled_from(EndReason)),
        )
    meta = VideoMeta(
        video_id=draw(names),
        frames=1 + max(t.last_frame for t in tracks.values()) + draw(st.integers(0, 2)),
        width=draw(st.floats(min_value=0.0, allow_infinity=False)),
        height=draw(st.floats(min_value=0.0, allow_infinity=False)),
        dosage=draw(names),
    )
    return LineageForest(tracks=tracks, meta=meta)


edge_values = st.sampled_from(
    [0.0, -0.0, 5e-324, 1.0, 5.0, 2.0**53, 1e200, 1e308, -1e308, math.inf, math.nan]
)
any_value = st.floats() | edge_values


@CODEC_SETTINGS
@given(st.tuples(any_value, any_value, any_value, any_value))
@example((1.0, 1e308, 5.0, 1e308))  # far edge overflows
@example((1.0, 1.0, 1e200, 1e200))  # doubled area overflows
@example((1e200, 0.0, 5.0, 5.0))  # size lost to rounding
@example((2.0**53, 0.0, 1.0, 1.0))  # size rounds by more than 1e-9
@example((2.0**52, 0.0, 1.0, 1.0))  # exact
def test_column_box_check_matches_validate_box(box):
    try:
        _validate_box(box)
        accepted = True
    except ValidationError:
        accepted = False
    assert valid_boxes(np.array([box])).tolist() == [accepted]


def _forest_bytes(prefix):
    return tuple(Path(p).read_bytes() for p in (f"{prefix}_tracks.txt", f"{prefix}_entries.txt"))


@CODEC_SETTINGS
@given(detection_files())
def test_detection_save_load_save_is_byte_stable(det_file):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = f"{tmp}/a.txt", f"{tmp}/b.txt"
        save_detections(det_file, first)
        save_detections(load_detections(first), second)
        assert Path(first).read_bytes() == Path(second).read_bytes()


@CODEC_SETTINGS
@given(forests())
def test_forest_save_load_save_is_byte_stable(forest):
    with tempfile.TemporaryDirectory() as tmp:
        save_forest(forest, f"{tmp}/a")
        save_forest(load_forest(f"{tmp}/a"), f"{tmp}/b")
        assert _forest_bytes(f"{tmp}/a") == _forest_bytes(f"{tmp}/b")


@st.composite
def mutations(draw):
    """A function that breaks one record line: drop or repeat a field, or
    swap in a token no field accepts, or a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["drop", "repeat", "token", "byte"]))
    pick = draw(st.integers(0, 10**6))
    token = draw(names) + "@" + draw(names)
    byte = draw(st.integers(0x80, 0xFF)).to_bytes(1, "big")

    def mutate(line: bytes) -> bytes:
        fields = line.split(b",")
        i = pick % len(fields)
        if kind == "drop":
            del fields[i]
        elif kind == "repeat":
            fields.insert(i, fields[i])
        elif kind == "token":
            fields[i] = token.encode()
        else:
            j = pick % len(line)
            return line[:j] + byte + line[j + 1:]
        return b",".join(fields)

    return mutate


def _mutate_record(path, mutate, pick):
    lines = Path(path).read_bytes().split(b"\n")
    records = [i for i, ln in enumerate(lines) if ln and not ln.startswith(b"#")]
    i = records[pick % len(records)]
    lines[i] = mutate(lines[i])
    Path(path).write_bytes(b"\n".join(lines))


@CODEC_SETTINGS
@given(detection_files(), mutations(), st.integers(0, 10**6))
def test_mutated_detection_file_is_rejected(det_file, mutate, pick):
    assume(any(det_file.frames))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.txt"
        save_detections(det_file, path)
        _mutate_record(path, mutate, pick)
        with pytest.raises(ValidationError):
            load_detections(path)


@CODEC_SETTINGS
@given(forests(), mutations(), st.integers(0, 10**6), st.booleans())
def test_mutated_forest_is_rejected(forest, mutate, pick, in_tracks):
    with tempfile.TemporaryDirectory() as tmp:
        tracks_path, entries_path = save_forest(forest, f"{tmp}/f")
        _mutate_record(tracks_path if in_tracks else entries_path, mutate, pick)
        with pytest.raises(ValidationError):
            load_forest(f"{tmp}/f")


# ---------------------------------------------------------------------------
# The graph read from a forest's files (``read_forest`` -> ``build_graph``)
# equals the graph of the loaded forest, and both paths reject a bad
# forest with the same message.

GRAPH_FIELDS = ("node_frames", "ids", "boxes", "src", "dst", "kinds")


def _outcome(read):
    """``read()``'s result, or the text of the ``ValidationError`` it raises."""
    try:
        return read()
    except ValidationError as exc:
        return str(exc)


@CODEC_SETTINGS
@given(forests(), st.booleans())
def test_graph_read_from_files_equals_graph_of_loaded_forest(forest, strict):
    with tempfile.TemporaryDirectory() as tmp:
        save_forest(forest, f"{tmp}/f")
        direct = build_graph(read_forest(f"{tmp}/f", strict))
        loaded = build_graph(load_forest(f"{tmp}/f", strict))
    assert direct.frames == loaded.frames == forest.meta.frames
    for name in GRAPH_FIELDS:
        a, b = getattr(direct, name), getattr(loaded, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # Against the graph rules written out entry by entry.
    nodes, edges = forest_nodes_edges(forest, forest.meta.frames)
    node = list(zip(direct.ids.tolist(), direct.node_frames.tolist()))
    assert node == [(tid, f) for f in sorted(nodes) for tid, _ in nodes[f]]
    assert list(map(tuple, direct.boxes.tolist())) == [
        box for f in sorted(nodes) for _, box in nodes[f]
    ]
    kinds = {LINK: "link", PARENT: "parent"}
    src, dst = direct.src.tolist(), direct.dst.tolist()
    assert {
        (node[s], node[d]): kinds[k] for s, d, k in zip(src, dst, direct.kinds.tolist())
    } == edges
    assert direct.edge_count == len(edges)


@CODEC_SETTINGS
@given(forests(), mutations(), st.integers(0, 10**6), st.booleans(), st.booleans())
def test_mutated_forest_is_rejected_alike_by_both_paths(
    forest, mutate, pick, in_tracks, strict
):
    with tempfile.TemporaryDirectory() as tmp:
        tracks_path, entries_path = save_forest(forest, f"{tmp}/f")
        _mutate_record(tracks_path if in_tracks else entries_path, mutate, pick)
        loaded = _outcome(lambda: load_forest(f"{tmp}/f", strict))
        direct = _outcome(lambda: build_graph(read_forest(f"{tmp}/f", strict)))
    assert isinstance(loaded, str)
    assert direct == loaded


# Each structural rule and its message, as files: (frames, track-table
# records, entries as "track,frame,class"), then the message with
# strict=True and with strict=False (None: the forest loads).
# ``{tracks}`` stands for the track table's path.
STRUCTURAL_FAULTS = {
    "gap": (
        4, ["1,0,2,,"], ["1,0,alive", "1,2,alive"],
        "track 1 has frame gaps", None,
    ),
    "revert_to_alive": (
        4, ["1,0,2,,"], ["1,0,alive", "1,1,dead", "1,2,alive"],
        "track 1 reverts to alive after death at frame 2",
        "track 1 reverts to alive after death at frame 2",
    ),
    "beyond_last_frame": (
        2, ["1,0,2,,"], ["1,0,alive", "1,1,alive", "1,2,alive"],
        "track 1 has entries outside the video frame range",
        "track 1 has entries outside the video frame range",
    ),
    "negative_frame": (
        2, ["1,-1,0,,"], ["1,-1,alive", "1,0,alive"],
        "track 1 has entries outside the video frame range",
        "track 1 has entries outside the video frame range",
    ),
    "missing_parent": (
        2, ["1,0,0,,", "2,1,1,7,"], ["1,0,alive", "2,1,alive"],
        "track 2 references missing parent 7",
        "track 2 references missing parent 7",
    ),
    "self_parent": (
        2, ["1,0,0,1,"], ["1,0,alive"],
        "track 1 is its own parent", "track 1 is its own parent",
    ),
    "late_daughter": (
        5, ["1,0,0,,division", "2,2,2,1,"], ["1,0,alive", "2,2,alive"],
        "track 2 starts at 2, parent 1 ends at 0", None,
    ),
    "divided_and_died": (
        3, ["1,0,1,,", "2,2,2,1,", "3,2,2,1,"],
        ["1,0,alive", "1,1,dead", "2,2,alive", "3,2,alive"],
        "track 1 both divided and died", "track 1 both divided and died",
    ),
    "cycle": (
        3, ["1,0,0,2,", "2,1,1,1,"], ["1,0,alive", "2,1,alive"],
        "track 1 starts at 0, parent 2 ends at 1", "lineage cycle through track 1",
    ),
    "cycle_after_tail": (
        1, ["4,0,0,1,", "1,0,0,2,", "2,0,0,1,"], ["4,0,alive", "1,0,alive", "2,0,alive"],
        "track 4 starts at 0, parent 1 ends at 0", "lineage cycle through track 1",
    ),
    "no_entries": (
        2, ["1,0,0,,", "2,0,0,,"], ["1,0,alive"],
        "{tracks}: track 2 has no entries", "{tracks}: track 2 has no entries",
    ),
    "span_mismatch": (
        3, ["1,0,2,,"], ["1,0,alive", "1,1,alive"],
        "track 1: declared span [0, 2] does not match entries [0, 1]",
        "track 1: declared span [0, 2] does not match entries [0, 1]",
    ),
    "parent_beyond_int64": (
        1, ["1,0,0,99999999999999999999,"], ["1,0,alive"],
        "track 1 references missing parent 99999999999999999999",
        "track 1 references missing parent 99999999999999999999",
    ),
    "span_beyond_int64": (
        1, ["1,-100000000000000000000,100000000000000000000,,"], ["1,0,alive"],
        "track 1: declared span [-100000000000000000000, 100000000000000000000] "
        "does not match entries [0, 0]",
        "track 1: declared span [-100000000000000000000, 100000000000000000000] "
        "does not match entries [0, 0]",
    ),
    # The track-table rules (entries, span, parent) are checked for every
    # track before any other rule.
    "table_rule_first": (
        4, ["1,0,2,,", "2,3,3,9,"], ["1,0,alive", "1,2,alive", "2,3,alive"],
        "track 2 references missing parent 9", "track 2 references missing parent 9",
    ),
    # Then track by track: an earlier track's later rule comes first.
    "track_order_first": (
        2, ["1,0,1,,", "2,0,2,,"],
        ["1,0,dead", "1,1,alive", "2,0,alive", "2,1,alive", "2,2,alive"],
        "track 1 reverts to alive after death at frame 1",
        "track 1 reverts to alive after death at frame 1",
    ),
    "entries_out_of_order": (
        3, ["2,0,2,,", "1,0,0,,"], ["2,2,alive", "1,0,alive", "2,0,dead", "2,1,alive"],
        "track 2 reverts to alive after death at frame 1",
        "track 2 reverts to alive after death at frame 1",
    ),
}


def _write_forest(prefix, frames, tracks, entries):
    Path(f"{prefix}_tracks.txt").write_text(
        "\n".join([f"#frames={frames}", "#width=64.0", "#height=64.0", *tracks]) + "\n"
    )
    rows = []
    for entry in entries:
        tid, frame, cls = entry.split(",")
        rows.append(f"{tid},{frame},10.0,10.0,5.0,5.0,high,{cls}")
    Path(f"{prefix}_entries.txt").write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("name", STRUCTURAL_FAULTS)
@pytest.mark.parametrize("strict", [True, False])
def test_structural_rule_message(tmp_path, name, strict):
    frames, tracks, entries, *messages = STRUCTURAL_FAULTS[name]
    prefix = str(tmp_path / "f")
    _write_forest(prefix, frames, tracks, entries)
    expected = messages[0 if strict else 1]
    loaded = _outcome(lambda: load_forest(prefix, strict))
    direct = _outcome(lambda: build_graph(read_forest(prefix, strict)))
    if expected is None:
        assert isinstance(loaded, LineageForest)
        assert direct.node_count == len(entries)
    else:
        assert loaded == direct == expected.format(tracks=f"{prefix}_tracks.txt")


@pytest.mark.parametrize("name", STRUCTURAL_FAULTS)
def test_rejected_forest_exits_2(tmp_path, capsys, name):
    # The prediction is read first, without the strict rules; a forest it
    # admits then fails as the ground truth.
    frames, tracks, entries, strict, lax = STRUCTURAL_FAULTS[name]
    prefix = str(tmp_path / "f")
    _write_forest(prefix, frames, tracks, entries)
    args = ["evaluate", prefix, prefix, "--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {(lax or strict).format(tracks=f'{prefix}_tracks.txt')}\n" in err
    assert "internal error" not in err


@st.composite
def faulty_forests(draw):
    """(frames, track table, entries) of up to four tracks, each one a run
    of frames that turns dead, that break the structural rules now and
    then: no entries, gaps, frames outside the video, alive after dead,
    spans, and parents that are late, missing, themselves or a cycle."""
    frames = draw(st.sampled_from([4, 6, 6, 6]))
    ids = draw(st.permutations([1, 2, 3, 4]))[: draw(st.integers(1, 4))]
    table, entries = [], {}
    for tid in ids:
        start = draw(st.sampled_from([-1, *[0, 1, 2, 3] * 3]))
        run = list(range(start, start + draw(st.sampled_from([0, *[1, 2, 3] * 4]))))
        if len(run) == 3 and draw(st.booleans()):
            del run[1]
        alive = draw(st.integers(0, len(run)))
        dead = [i >= alive for i in range(len(run))]
        if run and draw(st.integers(0, 5)) == 0:
            i = draw(st.integers(0, len(run) - 1))
            dead[i] = not dead[i]
        entries[tid] = dict(zip(run, dead))
        span = (min(run, default=0), max(run, default=0))
        if draw(st.integers(0, 19)) == 0:
            span = (span[0], span[1] + 1)
        others = [i for i in ids if i != tid]
        parent = draw(st.sampled_from([*[None, *others] * 3, tid, 5]))
        table.append((tid, *span, parent))
    return frames, table, entries


@settings(CODEC_SETTINGS, max_examples=400)
@given(faulty_forests(), st.booleans())
def test_structural_rules_match_the_loop_reference(forest, strict):
    frames, table, entries = forest
    with tempfile.TemporaryDirectory() as tmp:
        prefix = f"{tmp}/f"
        _write_forest(
            prefix, frames,
            [f"{t},{a},{b},{'' if p is None else p}," for t, a, b, p in table],
            [
                f"{tid},{f},{'dead' if dead else 'alive'}"
                for tid, by_frame in entries.items()
                for f, dead in by_frame.items()
            ],
        )
        expected = forest_fault(frames, table, entries, strict)
        loaded = _outcome(lambda: load_forest(prefix, strict))
        direct = _outcome(lambda: build_graph(read_forest(prefix, strict)))
    if expected is None:
        assert isinstance(loaded, LineageForest)
        assert direct.node_count == sum(map(len, entries.values()))
    else:
        assert loaded == direct == expected.format(tracks=f"{prefix}_tracks.txt")
    # The same forest built in memory, which declares no spans.
    classes = {False: CellClass.ALIVE, True: CellClass.DEAD}
    tracks = {}
    for tid, _, _, parent in table:
        tracks[tid] = Track(
            track_id=tid,
            entries={
                f: TrackEntry(bx(10, 10), classes[dead], Provenance.OBSERVED_HIGH)
                for f, dead in entries[tid].items()
            },
            parent=parent,
            children=[t for t, _, _, p in table if p == tid],
        )
    spans = [(t, min(entries[t], default=0), max(entries[t], default=0), p)
             for t, _, _, p in table]
    expected = forest_fault(frames, spans, entries, strict)
    if expected is not None:
        expected = expected.replace("{tracks}: ", "")
    forest = LineageForest(tracks=tracks, meta=VideoMeta(frames=frames))
    assert _outcome(lambda: forest.validate(strict, strict)) == expected
