"""File formats: detection tables, forest serialization, error reporting."""

import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
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
    load_ground_truth,
    partition_by_confidence,
    save_detections,
    save_forest,
    simulate,
    track_video,
)
from conftest import bx, make_forest, make_track


def det(frame, cx, cy, conf=0.9, cls=CellClass.ALIVE, emb=(0.0, 0.0, 0.0)):
    return Detection(
        frame_index=frame,
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
            det(0, 10.25, 20.5, conf=0.9),
            det(0, 40.0, 40.0, conf=0.3, cls=CellClass.DEAD, emb=(1.5, -2.25, 0.125)),
            det(2, 11.0, 21.0, conf=1.0),
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
        assert [len(f) for f in back.frames] == [2, 0, 1]
        for orig, reread in zip(df.all_detections(), back.all_detections()):
            assert reread.box == orig.box
            assert reread.confidence == orig.confidence
            assert reread.cell_class is orig.cell_class
            assert np.array_equal(reread.embedding, orig.embedding)

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
        cfg = TrackerConfig()
        dets = [
            det(0, 1, 1, conf=0.45),   # exactly tau_high -> high
            det(0, 2, 2, conf=0.449),  # just below -> low
            det(0, 3, 3, conf=0.25),   # exactly tau_low -> low
            det(0, 4, 4, conf=0.249),  # just below -> dropped
            det(0, 5, 5, conf=1.0),
            det(0, 6, 6, conf=0.0),
        ]
        high, low, dropped = partition_by_confidence(dets, cfg)
        assert [d.confidence for d in high] == [0.45, 1.0]
        assert [d.confidence for d in low] == [0.449, 0.25]
        assert [d.confidence for d in dropped] == [0.249, 0.0]


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
        pred = track_video(corrupt(sim.clean_frames, cfg), TrackerConfig())
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
        with pytest.raises(ValidationError):
            load_ground_truth(prefix)

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
        ("d.txt", 5, "0,1.0,1.0,5.0,5.0,0.9,alive,0.5", "expected 9 fields"),
        ("d.txt", 2, "#width", "malformed header"),
        ("d.txt", 4, "#embedding_dim=two", "'two'"),
        ("f_tracks.txt", 4, "x1,0,1,,end_of_video", "'x1'"),
        ("f_tracks.txt", 4, "1,s,1,,end_of_video", "'s'"),
        ("f_tracks.txt", 4, "1,0,1,p,end_of_video", "'p'"),
        ("f_tracks.txt", 4, "1,0,1,,vanished", "'vanished'"),
        ("f_tracks.txt", 4, "1,1,0,,end_of_video", "end 0 before start 1"),
        ("f_tracks.txt", 4, "1,0,1,end_of_video", "expected 5 fields"),
        ("f_tracks.txt", 1, "#frames", "malformed header"),
        ("f_tracks.txt", 1, "#frames=three", "'three'"),
        ("f_entries.txt", 1, "e,0,1.0,1.0,5.0,5.0,high,alive", "'e'"),
        ("f_entries.txt", 1, "1,f,1.0,1.0,5.0,5.0,high,alive", "'f'"),
        ("f_entries.txt", 1, "1,0,1.0,tall,5.0,5.0,high,alive", "'tall'"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,5.0,guess,alive", "'guess'"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,5.0,high,zombie", "'zombie'"),
        ("f_entries.txt", 1, "1,0,1.0,1.0,5.0,5.0,high", "expected 8 fields"),
        ("f_entries.txt", 2, "1,0,1.0,1.0,5.0,5.0,low,alive", "duplicate entry"),
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
    assert len(load_detections(str(tmp_path / "d.txt")).all_detections()) == 1
    assert load_forest(str(tmp_path / "f")).tracks[1].span() == 2


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
boxes = st.tuples(finite, finite, positive, positive)
names = st.text(alphabet="abcXYZ019_-.", max_size=6)


@st.composite
def detection_files(draw):
    dim = draw(st.integers(1, 8))
    n_frames = draw(st.integers(1, 4))
    frames = [
        draw(st.lists(st.builds(
            Detection,
            frame_index=st.just(f),
            box=boxes,
            confidence=st.floats(-0.0, 1.0),
            cell_class=st.sampled_from(CellClass),
            embedding=st.lists(finite, min_size=dim, max_size=dim).map(np.array),
        ), max_size=3))
        for f in range(n_frames)
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
    assume(det_file.all_detections())
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
