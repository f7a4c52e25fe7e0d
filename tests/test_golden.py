"""Golden byte identity of a small end-to-end CLI training.

A small config is trained through `coldbundle train all` and evaluated with
`--k-eval` below the bundle count, so the top-k partition of the ranking
kernel and the stage-3 pseudo-triple sampler both run.  It runs in each
scenario: `cold_start` (eta 0.5), `all_bundle` (eta 0.3) and `warm_start`
(eta 0, one gate set).  One more `cold_start` case runs phase two of
stage 3 in batches of 128: four batches per epoch, the last one short, and
222 pseudo triples that the four batches do not divide.  The three
checkpoint payload sha256 values and the sha256 of `metrics.json` without
its `config` entry must equal the constants below.

The constants belong to the numpy / scipy-openblas build the suite runs on;
another BLAS build may sum in another order.  They are re-recorded only in a
change whose CHANGES.md entry says that it changes the random stream or the
floating-point order.  This test replaces the hand-run hash checks that
refactors used to rely on.
"""

import hashlib
import json

import pytest

from coldbundle.cli import main

GOLDEN = [
    "--seed", "5", "--synth-users", "120", "--synth-items", "200", "--synth-bundles", "60",
    "--d", "16", "--T", "50", "--k-eval", "5",
    "--stage1-epochs", "3", "--stage1-batch", "256", "--stage1-patience", "3",
    "--cond-epochs", "2", "--diff-epochs", "4", "--stage3-epochs", "2",
]

EXPECTED = {
    "stage1": "f3ada4f8b0a92c370a2b377b2d1b4478bbb974ce1bad6c0cf32fc434e4aff767",
    "stage2": "6204d574ac4fee22d9fca1a94535827b9b097dbc7c200af4e0676096a2416340",
    "stage3": "5fde82093b66b873ffc61e7b2056f0c8948c973fb44991f2b83682a2a43a0cb2",
    "metrics": "aa93780dc092c6e02f75bfa9e08072763944132a083dc27b03ce743d0b5a6d30",
}

EXPECTED_SCENARIOS = {
    "all_bundle": {
        "stage1": "f70eaf223615810fef280ad4c391c38df93b21ba7c74f4bd0819fce8f42ead72",
        "stage2": "e65b03edcccd1dd1981cdb1d57b1741b476998a808f9c4c37731e0487df2694d",
        "stage3": "e85e56f9db382cbfd7348c307f0fbf7345f9487c9ff5fb634ef7a6cb005e6547",
        "metrics": "fd92417e9946185748b01cc0396341b5313d36f8a8352cd8ac2bd6f29b259b23",
    },
    "warm_start": {
        "stage1": "7537d8df2c7aa30a34be7aeade3385d1b08f97b506485b218afec5900d15927b",
        "stage2": "f61f9fc9fc1dfcee841b52a3e816b80462b11cbbbfec76bd100bd20948cb5ec7",
        "stage3": "85e454f4b7ef700b139bc27c8be6526104a6f2402d995373edffa882c64bcfc4",
        "metrics": "73ed50164aa506e520184b5ca8bf7214070ed7b87696ac32672c7fb0553d883f",
    },
}

# cold_start with --stage3-batch 128; stages 1 and 2 do not read the batch.
EXPECTED_BATCHED = {
    **EXPECTED,
    "stage3": "02343fbe63a2131a8bc70a927177dc0c30d74f3b9a082d10189cfe2d79e9992a",
    "metrics": "3d6e608411e543f525a71b409abab6cdb4bf6549e898e3d890f464148c6dfb6d",
}


def _payload_sha256(path) -> str:
    with open(path, "rb") as fh:
        fh.read(6)
        n = int.from_bytes(fh.read(8), "little")
        return json.loads(fh.read(n))["payload_sha256"]


def fingerprint(out) -> dict:
    got = {f"stage{s}": _payload_sha256(out / f"stage{s}.ckpt") for s in "123"}
    report = json.loads((out / "metrics.json").read_text())
    report.pop("config")
    blob = json.dumps(report, sort_keys=True, separators=(",", ":")).encode("utf-8")
    got["metrics"] = hashlib.sha256(blob).hexdigest()
    return got


def test_golden_training_is_byte_identical(tmp_path):
    assert main(["--out", str(tmp_path), *GOLDEN, "train", "all"]) == 0
    assert main(["--out", str(tmp_path), *GOLDEN, "eval"]) == 0
    assert fingerprint(tmp_path) == EXPECTED


@pytest.mark.parametrize("scenario", sorted(EXPECTED_SCENARIOS))
def test_golden_scenario_training_is_byte_identical(tmp_path, scenario):
    flags = [*GOLDEN, "--scenario", scenario]
    assert main(["--out", str(tmp_path), *flags, "train", "all"]) == 0
    assert main(["--out", str(tmp_path), *flags, "eval"]) == 0
    assert fingerprint(tmp_path) == EXPECTED_SCENARIOS[scenario]


def test_golden_batched_phase_two_is_byte_identical(tmp_path):
    flags = [*GOLDEN, "--stage3-batch", "128"]
    assert main(["--out", str(tmp_path), *flags, "train", "all"]) == 0
    assert main(["--out", str(tmp_path), *flags, "eval"]) == 0
    assert fingerprint(tmp_path) == EXPECTED_BATCHED
