"""Golden digests of the enumeration oracle.

Every oracle result is an exact integer or rational, so a canonical JSON
dump of them pins the oracle byte for byte.  The digests were computed by
the product over grouped (upper, lower) occurrence masks and must hold for
any rebuild of it: a changed digest is a changed answer, not a speed-up.
"""

import hashlib
import json

import pytest

from meandric.cli import main
from meandric.meanders import enumerate_shapes, format_shape, parse_shape
from meandric.oracle import block_spectrum, exact_distribution, exact_pair_probability, moment_report
from meandric.verify import STRONG_L6, WEAK_L5

LOOP = "supp=1,2;up=1-2;lo=1-2"

# Every shape of half-length <= 3 under its ``meandric shapes`` id, and both examples.
SHAPES = {
    f"{ell}.{k}": format_shape(s)
    for ell in (1, 2, 3)
    for k, s in enumerate(enumerate_shapes(ell), start=1)
} | {"strong-l6": STRONG_L6, "weak-l5": WEAK_L5}
N_MAX = {"weak-l5": 8}  # 7 for the others

# shape id: SHA-256 of the canonical dump for n = 1..N_MAX[id]
DUMP_DIGESTS = {
    "1.1": "9a77d93dce5711e35134c47b2d0e337d112caddc4f33effaa59e6cb10765c6f7",
    "2.1": "a54adefb683a2ddbf49430ec61b1401ada4cbcbd7703a8cb8c4ca7256f90a1a8",
    "2.2": "408f3be927c73d61f79a4a5cb5b1d6080bf11da29552102fa3d927b38ab5677a",
    "2.3": "cee71816e44a01b6b4ee9bf355d29a95c429691151b2523b7c215795973d69d5",
    "3.1": "78bbed261a1ab81553b38236b3db205806970ce8d0b60c06ae98cea9e2fbf996",
    "3.2": "b86ce0566ba22a0a2013ac1d3a33c812ae5ee015aa7b6bc8720e42e7419ddeb3",
    "3.3": "82706153f8dd8be2bc9d0273ae7b4ce65c1e16346907187bf0683d4467eb7b14",
    "3.4": "c971b259ea612ffc0f29e257f26f9a8fd948ca28fa5b6847688dcb8faa36d99d",
    "3.5": "d159a15670a0d4e8e9e16263f54a730e3c42be5327b3e1ba1c7b6305240edade",
    "3.6": "85998c1c9d046ba8e45d70f35eb51dbca30ca5ee0762d6802247fb406c6ade6d",
    "3.7": "953a9c2b9093e0c76fa8b50d72e2767b9344a6a3a0f0b70afc514de20f93e42b",
    "3.8": "12d058c55c486cc1194e32b6d212715b924acc692356873e7a89ca4b9f197662",
    "3.9": "71f527b268f3e591feca349475046cbd504a2a5198a73df84030a5cb4ba90b2c",
    "3.10": "ef0cec870513f133bbb5a9e54427d9e162f8594151bdc87154b1a32c4e754493",
    "3.11": "1ef7b34f370d3dce3fdeb2f0cb893a3b3f19093f23a3c9dd6b87edb503321c33",
    "3.12": "22aaca4b9f6d6c9d0dfbfb3e0af59419740739d9ef3ebe26d9b97acee699e80e",
    "3.13": "ad4a722f1da5849d007d3caae4e00d146dbc97c84cd6cd3821d0f1340338c5a0",
    "3.14": "3cb480cde7d124b807bd4fccfc3da708beade8063ea3dd14ee2f6522f9360d9b",
    "3.15": "1daf21879af2c11f6fb3b0168f81264d0eebb9174e5602c3e0dfd5fab2e9593b",
    "strong-l6": "c0e31a65e4c3eb71cc465b18f27667eb36ce3d7d29925a95d0ccf76e05865304",
    "weak-l5": "b5136dd699f80deda586fdafede77bd8d814385616fc923f4d68667beb5f0228",
}

# meandric moments --mode exact,formula --n 9 --r 3 --shape LOOP --size-cap 9 --distribution-csv ...
CLI_PAYLOAD_SHA256 = "ca91cb2c4c28781edf2fe04796a6cf2c140aa6d27c745e84a8d48caa8287c8e4"
CLI_DISTRIBUTION_CSV_SHA256 = "3c0d32150b6a0ae28a64c36543e87bd4dbaa8285a6e757b53b3812039b3d9ea8"


def _dump(shape_text: str, n: int) -> dict:
    """Every oracle result for one (shape, n), with rationals as text."""
    shape = parse_shape(shape_text)
    width = 2 * n - 2 * shape.half_length + 1
    return {
        "n": n,
        "distribution": sorted(exact_distribution(n, shape).items()),
        "spectrum": {
            r: [(u, str(v)) for u, v in block_spectrum(n, r, shape).items()] for r in (1, 2, 3)
        },
        "report": moment_report(n, 2, shape).to_json_dict(),
        "pairs": [(k, str(exact_pair_probability(n, k, shape))) for k in range(2, width + 1)],
    }


def dump_digest(shape_text: str, n_max: int) -> str:
    dump = [_dump(shape_text, n) for n in range(1, n_max + 1)]
    return hashlib.sha256(json.dumps(dump, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_dump_covers_every_small_shape():
    assert set(DUMP_DIGESTS) == set(SHAPES)


@pytest.mark.parametrize("shape_id", list(DUMP_DIGESTS))
def test_oracle_dump_digest(shape_id):
    assert dump_digest(SHAPES[shape_id], N_MAX.get(shape_id, 7)) == DUMP_DIGESTS[shape_id]


def test_cli_oracle_digests(tmp_path):
    csv_file, out_file = tmp_path / "dist.csv", tmp_path / "out.json"
    argv = ["moments", "--mode", "exact,formula", "--n", "9", "--r", "3", "--shape", LOOP,
            "--size-cap", "9", "--distribution-csv", str(csv_file), "--out", str(out_file)]
    assert main(argv) == 0
    manifest = json.loads(out_file.read_text())["manifest"]
    assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == CLI_DISTRIBUTION_CSV_SHA256
    assert manifest["parameters"]["distributionCsvSha256"] == CLI_DISTRIBUTION_CSV_SHA256
    assert manifest["payloadSha256"] == CLI_PAYLOAD_SHA256
