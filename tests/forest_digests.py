"""Print the sha256 digest of every forest the acceptance corpora produce.

Run from the repository root (it takes a minute or two):

    PYTHONPATH=src python tests/forest_digests.py > digests.txt

Each line is ``<corpus> <video> <tracker variant> <digest>``, the digest
taken over the saved tracks and entries files.  The corpora are those of
``tests/test_acceptance.py``: criterion 1's 20 identity seeds, criterion
6's 50 random noisy runs (with and without Kalman), and all 100
criterion-3/4 videos under each of their six tracker variants.  Two
checkouts that print the same lines track every gate video to the same
bytes.  The file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from celltrack import TrackerConfig, corrupt, save_forest, simulate, track_video
from test_acceptance import (
    NOISY_DRAWS,
    NOISY_VARIANTS,
    VIDEOS_PER_DRAW,
    identity_config,
    noisy_sim_config,
    random_sim_config,
)


def corpora():
    """``(corpus, video, variants, detections)`` of every gate video."""
    for seed in range(20):
        cfg = identity_config(seed)
        dets = corrupt(simulate(cfg).clean_frames, cfg)
        yield "criterion1", str(seed), {"default": TrackerConfig()}, dets
    rng = np.random.default_rng(6)
    random_variants = {
        "default": TrackerConfig(),
        "no_kalman": replace(TrackerConfig(), use_kalman=False),
    }
    for i in range(50):
        cfg = random_sim_config(rng, i)
        dets = corrupt(simulate(cfg).clean_frames, cfg)
        yield "criterion6", str(i), random_variants, dets
    for seed in range(1000, 1000 + NOISY_DRAWS * VIDEOS_PER_DRAW):
        cfg = noisy_sim_config(seed)
        dets = corrupt(simulate(cfg).clean_frames, cfg)
        yield "criterion3_4", str(seed), NOISY_VARIANTS, dets


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "forest")
        for corpus, video, variants, dets in corpora():
            for name, config in variants.items():
                digest = hashlib.sha256()
                for path in save_forest(track_video(dets, config), prefix):
                    digest.update(Path(path).read_bytes())
                print(corpus, video, name, digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
