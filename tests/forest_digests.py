"""Print the sha256 digest of every file the acceptance corpora produce.

Run from the repository root (it takes a minute or two):

    PYTHONPATH=src python tests/forest_digests.py > digests.txt

Each line is ``<corpus> <video> <output> <digest>``.  The outputs of a
video are its clean and corrupted detection text, as ``save_detections``
writes them (``clean.txt`` and ``detections.txt``), and its tracked
forest under each tracker variant, the digest taken over the saved
tracks and entries files.  The corpora are those of
``tests/test_acceptance.py``: criterion 1's 20 identity seeds, criterion
6's 50 random noisy runs (with and without Kalman), and all 100
criterion-3/4 videos under each of their six tracker variants.  Two
checkouts that print the same lines simulate and track every gate video
to the same bytes.  The file is not a test module, so pytest does not
collect it.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from celltrack import (
    DetectionFile,
    TrackerConfig,
    corrupt,
    save_detections,
    save_forest,
    simulate,
    track_video,
)
from test_acceptance import (
    NOISY_DRAWS,
    NOISY_VARIANTS,
    VIDEOS_PER_DRAW,
    identity_config,
    noisy_sim_config,
    random_sim_config,
)


def corpora():
    """``(corpus, video, variants, config)`` of every gate video."""
    for seed in range(20):
        yield "criterion1", str(seed), {"default": TrackerConfig()}, identity_config(seed)
    rng = np.random.default_rng(6)
    random_variants = {
        "default": TrackerConfig(),
        "no_kalman": replace(TrackerConfig(), use_kalman=False),
    }
    for i in range(50):
        yield "criterion6", str(i), random_variants, random_sim_config(rng, i)
    for seed in range(1000, 1000 + NOISY_DRAWS * VIDEOS_PER_DRAW):
        yield "criterion3_4", str(seed), NOISY_VARIANTS, noisy_sim_config(seed)


def digest(*paths: str) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(Path(path).read_bytes())
    return sha.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        prefix, text = str(Path(tmp) / "forest"), str(Path(tmp) / "detections.txt")
        for corpus, video, variants, cfg in corpora():
            result = simulate(cfg)
            dets = corrupt(result.clean, cfg)
            for name, columns in (("clean.txt", result.clean), ("detections.txt", dets)):
                det_file = DetectionFile(result.forest.meta, cfg.embedding_dim, columns=columns)
                save_detections(det_file, text)
                print(corpus, video, name, digest(text), flush=True)
            for name, config in variants.items():
                paths = save_forest(track_video(dets, config), prefix)
                print(corpus, video, name, digest(*paths), flush=True)


if __name__ == "__main__":
    main()
