"""Golden digests of the random stream.

Every sampled quantity is a pure function of ``(seed, stream, position)``;
these digests pin that function byte for byte.  They were computed with
the per-draw sampler (a new Philox generator per position, a 1-D walk and
pairing per matching) and must hold for any rebuild of it.  A change that
alters them changes every Monte Carlo result and is a versioned format
break, not a speed-up.
"""

import hashlib
import json

import pytest

from meandric.cli import main
from meandric.meanders import parse_shape
from meandric.sampling import (
    LOWER_STREAM,
    UPPER_STREAM,
    ExperimentConfig,
    matching_uniformity,
    sample_matching,
    samples_array,
)

LOOP = "supp=1,2;up=1-2;lo=1-2"
HALF_LENGTH_2 = "supp=1,2,3,4;up=1-4,2-3;lo=1-2,3-4"

# (n, samples, shape, seed, workers): SHA-256 of samples_array(cfg).tobytes()
SAMPLES_DIGESTS = [
    ((1, 16, LOOP, 3, 1), "cb9cb8229f3a322017b0d7644744ea14809f2f738decf88632f232fd5a12bb9c"),
    ((9, 300, LOOP, 21, 1), "b04e809be59e99dce979c7496392b94bf7dafbac0ec787c805f966b1f737b620"),
    ((9, 300, LOOP, 21, 2), "b04e809be59e99dce979c7496392b94bf7dafbac0ec787c805f966b1f737b620"),
    (
        (37, 1500, HALF_LENGTH_2, 2**64 - 1, 2),
        "5e35c4970028d0159bb369a9402ac6b6966c383e46fe6c2301d919e25ccc81ac",
    ),
    ((2000, 2048, LOOP, 5, 1), "35817c51abcee51b709a5ef8f2c835c65203d38f88c007b01f83c32d4c29c5de"),
    (
        (2000, 2048, HALF_LENGTH_2, 5, 2),
        "8f9606177a6ad23541bcf9b50ee490c5aadefe09dc9e17a5282dc471e1cc20b7",
    ),
    # 2n + 1 >= 2**15: depth keys no longer fit in 16 bits.
    ((20000, 8, LOOP, 7, 1), "1564e97ac0da9b05e1738a2829360452a6c8c609104b097e88a30e18a7314b06"),
]

# (n, draws): matching_uniformity(n, draws, seed=1).counts
UNIFORMITY_COUNTS = {
    (2, 4000): (2030, 1970),
    (3, 20000): (4038, 3946, 3960, 4043, 4013),
    (4, 50000): (
        3424, 3605, 3541, 3588, 3708, 3602, 3607, 3635, 3634, 3575, 3520, 3607, 3452, 3502,
    ),
    (5, 50000): (
        1171, 1163, 1185, 1166, 1180, 1230, 1216, 1161, 1176, 1224, 1160, 1185, 1160, 1226,
        1273, 1198, 1158, 1185, 1191, 1261, 1204, 1100, 1226, 1254, 1135, 1156, 1196, 1162,
        1153, 1227, 1192, 1093, 1225, 1206, 1195, 1236, 1145, 1215, 1177, 1220, 1211, 1203,
    ),
}

# sample_matching(40, 1234, 77, stream).partner
PARTNERS_N40 = {
    UPPER_STREAM: (
        0, 22, 17, 10, 5, 4, 9, 8, 7, 6, 3, 12, 11, 14, 13, 16, 15, 2, 21, 20, 19, 18, 1, 26,
        25, 24, 23, 80, 29, 28, 67, 32, 31, 34, 33, 64, 39, 38, 37, 36, 41, 40, 43, 42, 61, 46,
        45, 48, 47, 52, 51, 50, 49, 54, 53, 60, 59, 58, 57, 56, 55, 44, 63, 62, 35, 66, 65, 30,
        79, 72, 71, 70, 69, 74, 73, 78, 77, 76, 75, 68, 27,
    ),
    LOWER_STREAM: (
        0, 68, 65, 10, 5, 4, 7, 6, 9, 8, 3, 64, 15, 14, 13, 12, 59, 58, 41, 38, 35, 22, 21, 24,
        23, 30, 27, 26, 29, 28, 25, 34, 33, 32, 31, 20, 37, 36, 19, 40, 39, 18, 55, 44, 43, 54,
        51, 50, 49, 48, 47, 46, 53, 52, 45, 42, 57, 56, 17, 16, 63, 62, 61, 60, 11, 2, 67, 66,
        1, 80, 77, 76, 75, 74, 73, 72, 71, 70, 79, 78, 69,
    ),
}

# meandric sample --n 2000 --samples 2048 --shape LOOP --seed 5 --csv ...
CLI_CSV_SHA256 = "bce2a35b0dda496b957cd0b0f9c9941d232e1b67ed37751e1bc6c19161ed6c84"
CLI_PAYLOAD_SHA256 = "fe36c46619573306d27decaff5bee6ae87f08d921e3508d488991c0d3395f7ac"


@pytest.mark.parametrize(
    "case,digest",
    SAMPLES_DIGESTS,
    ids=[f"n{c[0]}-workers{c[4]}-{'loop' if c[2] == LOOP else 'l2'}" for c, _ in SAMPLES_DIGESTS],
)
def test_samples_array_digest(case, digest):
    n, samples, shape, seed, workers = case
    cfg = ExperimentConfig(
        n=n, sample_count=samples, shape=parse_shape(shape), seed=seed, worker_count=workers
    )
    assert hashlib.sha256(samples_array(cfg).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n,draws", sorted(UNIFORMITY_COUNTS))
def test_uniformity_counts(n, draws):
    assert matching_uniformity(n, draws, 1).counts == UNIFORMITY_COUNTS[(n, draws)]


@pytest.mark.parametrize("stream", [UPPER_STREAM, LOWER_STREAM])
def test_sample_matching_partners(stream):
    assert sample_matching(40, 1234, 77, stream).partner == PARTNERS_N40[stream]


def test_cli_sample_digests(tmp_path):
    csv_file, out_file = tmp_path / "samples.csv", tmp_path / "out.json"
    argv = ["sample", "--n", "2000", "--samples", "2048", "--shape", LOOP, "--seed", "5",
            "--csv", str(csv_file), "--out", str(out_file)]
    assert main(argv) == 0
    manifest = json.loads(out_file.read_text())["manifest"]
    assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == CLI_CSV_SHA256
    assert manifest["parameters"]["csvSha256"] == CLI_CSV_SHA256
    assert manifest["payloadSha256"] == CLI_PAYLOAD_SHA256
