import json

import pytest

from meandric.cli import EXIT_GATE, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from meandric.verify import WEAK_L5

LOOP = "supp=1,2;up=1-2;lo=1-2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_shapes_list(capsys):
    code, doc = run_json(capsys, "shapes", "--half-length", "2")
    assert code == EXIT_OK
    assert doc["payload"]["count"] == 3
    assert doc["manifest"]["subcommand"] == "shapes"
    assert doc["payload"]["shapes"][0]["id"] == "2.1"


def test_shapes_parse_valid(capsys):
    code, doc = run_json(capsys, "shapes", "--parse", WEAK_L5)
    assert code == EXIT_OK
    assert doc["payload"] == {
        "valid": True,
        "shape": WEAK_L5,
        "ell": 5,
        "supportSize": 6,
    }


def test_shapes_parse_invalid(capsys):
    code, out, err = run_cli(capsys, "shapes", "--parse", "supp=1,3,4,6;up=1-6,3-4;lo=1-6,3-4")
    assert code == EXIT_INVARIANT
    assert "odd-gap" in err


def test_shapes_needs_exactly_one_mode(capsys):
    code, out, err = run_cli(capsys, "shapes")
    assert code == EXIT_USAGE
    code, out, err = run_cli(capsys, "shapes", "--half-length", "1", "--parse", LOOP)
    assert code == EXIT_USAGE


def test_constants_simple_loop(capsys):
    code, doc = run_json(capsys, "constants", "--shape", LOOP)
    assert code == EXIT_OK
    payload = doc["payload"]
    assert payload["K"] == "1"
    assert payload["mu"] == {"num": "1", "den": "8"}
    assert payload["sigma2"] == {"num": "13", "den": "128"}
    assert payload["strong"] is True


def test_moments_exact_vs_formula(capsys):
    code, doc = run_json(
        capsys, "moments", "--mode", "exact,formula", "--n", "5", "--r", "2", "--shape", LOOP
    )
    assert code == EXIT_OK
    payload = doc["payload"]
    assert payload["exactMoment"] == payload["formulaMoment"] == {"num": "50", "den": "63"}
    assert payload["deltas"]["exactMinusFormula"] == 0.0


def test_moments_r_zero(capsys):
    code, doc = run_json(capsys, "moments", "--mode", "formula", "--n", "6", "--r", "0", "--shape", LOOP)
    assert code == EXIT_OK
    assert doc["payload"]["formulaMoment"] == {"num": "1", "den": "1"}


def test_moments_weak_formula_refused(capsys):
    code, out, err = run_cli(
        capsys, "moments", "--mode", "formula", "--n", "8", "--r", "2", "--shape", WEAK_L5
    )
    assert code == EXIT_USAGE
    assert "strong shape" in err


def test_moments_asymptotic_delta(capsys):
    code, doc = run_json(
        capsys,
        "moments",
        "--mode",
        "formula,asymptotic",
        "--n",
        "3000",
        "--r",
        "12",
        "--shape",
        LOOP,
    )
    assert code == EXIT_OK
    assert abs(doc["payload"]["deltas"]["logFormulaMinusAsymptotic"]) < 0.05


def test_sample_reproducible_and_replay(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    argv = [
        "sample",
        "--n",
        "50",
        "--samples",
        "400",
        "--shape",
        LOOP,
        "--seed",
        "37",
        "--out",
        str(out_file),
    ]
    assert main(argv) == EXIT_OK
    doc1 = json.loads(out_file.read_text())
    assert main(argv) == EXIT_OK
    doc2 = json.loads(out_file.read_text())
    assert doc1["payload"] == doc2["payload"]
    assert doc1["manifest"]["payloadSha256"] == doc2["manifest"]["payloadSha256"]

    code, out, err = run_cli(capsys, "replay", str(out_file))
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["match"] is True


def test_sample_worker_invariance(tmp_path):
    payloads = []
    for workers in ("1", "3"):
        out_file = tmp_path / f"w{workers}.json"
        assert (
            main(
                [
                    "sample",
                    "--n",
                    "80",
                    "--samples",
                    "600",
                    "--shape",
                    LOOP,
                    "--seed",
                    "5",
                    "--workers",
                    workers,
                    "--out",
                    str(out_file),
                ]
            )
            == EXIT_OK
        )
        payloads.append(json.loads(out_file.read_text())["payload"])
    assert payloads[0] == payloads[1]


def test_sample_csv(tmp_path):
    csv_file = tmp_path / "samples.csv"
    out_file = tmp_path / "out.json"
    assert (
        main(
            [
                "sample",
                "--n",
                "20",
                "--samples",
                "25",
                "--shape",
                LOOP,
                "--seed",
                "2",
                "--csv",
                str(csv_file),
                "--out",
                str(out_file),
            ]
        )
        == EXIT_OK
    )
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "position,x"
    assert len(lines) == 26
    assert "csvSha256" in json.loads(out_file.read_text())["manifest"]["parameters"]


def test_sample_gate_failure_exit_code(tmp_path):
    # At n=5 the finite-size bias of the simple-loop mean rate is about
    # 0.075, far beyond the 0.002 gate, so the gate fails determinately.
    out_file = tmp_path / "gate.json"
    code = main(
        [
            "sample",
            "--n",
            "5",
            "--samples",
            "400",
            "--shape",
            LOOP,
            "--seed",
            "1",
            "--gate",
            "meanvar",
            "--out",
            str(out_file),
        ]
    )
    assert code == EXIT_GATE
    doc = json.loads(out_file.read_text())
    assert doc["payload"]["gates"]["pass"] is False


def test_sample_shape_too_large(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--n", "3", "--samples", "10", "--shape", WEAK_L5, "--seed", "0"
    )
    assert code == EXIT_INVARIANT
    assert "cannot fit" in err


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--seed", "-1", "seed -1 outside [0, 2**64)"),
        ("--seed", str(2**64), f"seed {2**64} outside [0, 2**64)"),
        ("--samples", "0", "sample_count must be >= 1"),
        ("--workers", "0", "worker_count must be >= 1"),
        ("--n", "0", "n must be >= 1, got 0"),
        ("--n", "-5", "n must be >= 1, got -5"),
    ],
)
def test_sample_out_of_range_is_usage_error(capsys, flag, value, message):
    args = {"--n": "5", "--samples": "3", "--shape": LOOP, "--seed": "0", "--workers": "1"}
    args[flag] = value
    code, out, err = run_cli(capsys, "sample", *(item for pair in args.items() for item in pair))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("mode", ["exact", "formula", "asymptotic", "exact,formula,asymptotic"])
@pytest.mark.parametrize(
    "n,r,message",
    [
        ("0", "2", "n must be >= 1, got 0"),
        ("-3", "1", "n must be >= 1, got -3"),
        ("5", "-1", "r must be >= 0, got -1"),
    ],
)
def test_moments_out_of_range_is_usage_error(capsys, mode, n, r, message):
    code, out, err = run_cli(capsys, "moments", "--mode", mode, "--n", n, "--r", r, "--shape", LOOP)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_config_file_and_env_workers(capsys, tmp_path, monkeypatch):
    config = tmp_path / "meandric.cfg"
    config.write_text("# defaults\nseed = 99\nworkers = 2\n")
    code, doc = run_json(
        capsys,
        "--config",
        str(config),
        "sample",
        "--n",
        "30",
        "--samples",
        "50",
        "--shape",
        LOOP,
    )
    assert code == EXIT_OK
    assert doc["manifest"]["parameters"]["seed"] == 99
    monkeypatch.setenv("MEANDRIC_WORKERS", "not-a-number")
    code, out, err = run_cli(
        capsys, "sample", "--n", "30", "--samples", "50", "--shape", LOOP, "--seed", "0"
    )
    assert code == EXIT_USAGE
    assert "MEANDRIC_WORKERS" in err
    monkeypatch.setenv("MEANDRIC_WORKERS", "2")
    code, doc = run_json(
        capsys, "sample", "--n", "30", "--samples", "50", "--shape", LOOP, "--seed", "0"
    )
    assert code == EXIT_OK


def test_verify_small_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "small")
    assert code == EXIT_OK
    doc = json.loads(out[out.index("{") :])
    assert doc["payload"]["pass"] is True
    names = [r["check"] for r in doc["payload"]["results"]]
    assert "strong-moment-identity" in names
    assert "[PASS] strong-moment-identity" in out


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "medium")
    assert code == EXIT_USAGE
    assert "unknown suite" in err


def test_unknown_command(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE
