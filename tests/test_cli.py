import argparse
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meandric
from meandric import oracle, verify
from meandric.analysis import factorial_moment_strong
from meandric.cli import (
    EXIT_GATE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    _COMMANDS,
    _exact_digits,
    _parse_plain,
    build_parser,
    main,
    payload_schema,
)
from meandric.meanders import simple_loop
from meandric.verify import STRONG_L6, WEAK_L5

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
    assert code == EXIT_USAGE
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
    assert err == (
        "refused: the closed-form factorial moment assumes a strong shape (copies can "
        "never overlap); this shape is weak at offsets [7], so only r <= 1 or the "
        "exact/asymptotic modes apply\n"
    )


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


def test_moments_beyond_the_int_digit_limit(capsys, tmp_path, monkeypatch):
    # The simple loop's 1000th factorial moment at n = 10**5 has a numerator
    # of more digits than Python writes as text by default (4300).
    monkeypatch.chdir(tmp_path)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    argv = ["moments", "--mode", "formula", "--n", "100000", "--r", "1000", "--shape", LOOP]
    code, out, err = run_cli(capsys, *argv, "--out", "big.json")
    assert (code, out, err) == (EXIT_OK, "", "")
    assert limit() == before
    num = json.loads(Path("big.json").read_text())["payload"]["formulaMoment"]["num"]
    assert len(num) > 4300
    with _exact_digits():
        assert num == str(factorial_moment_strong(100000, 1000, simple_loop()).numerator)
    code, out, err = run_cli(capsys, "replay", "big.json")
    assert code == EXIT_OK, err
    assert json.loads(out)["payload"]["match"] is True
    assert limit() == before


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


@pytest.mark.parametrize(
    "argv,code,parameters",
    [
        (["shapes", "--half-length", "2"], EXIT_OK, {"halfLength": 2, "maxHalfLength": 5}),
        (["shapes", "--parse", LOOP], EXIT_OK, {"parse": LOOP}),
        (["constants", "--shape", LOOP], EXIT_OK, {"shape": LOOP}),
        (
            ["moments", "--mode", "exact,formula", "--n", "5", "--r", "2", "--shape", LOOP,
             "--distribution-csv", "side.csv"],
            EXIT_OK,
            {
                "n": 5,
                "r": 2,
                "shape": LOOP,
                "mode": "exact,formula",
                "sizeCap": 8,
                "distributionCsvSha256": "6f0a4fc56d87970e8d0060cc1914b42ba4771e6b3c68f4e2e82e3c813734f08b",
            },
        ),
        (
            # The seed comes from the config file; at n = 20 the full gate fails.
            ["--config", "seed.cfg", "sample", "--n", "20", "--samples", "25", "--shape", LOOP,
             "--gate", "full", "--csv", "side.csv"],
            EXIT_GATE,
            {
                "n": 20,
                "samples": 25,
                "shape": LOOP,
                "seed": 11,
                "gate": "full",
                "csvSha256": "8c8ac9fa0afe5083ed30ceb5cf6e922d12a661e9c1fc6273dde120063e95c16f",
            },
        ),
    ],
    ids=["shapes-half-length", "shapes-parse", "constants", "moments-csv", "sample-config-seed"],
)
def test_manifest_parameters_and_replay(capsys, tmp_path, monkeypatch, argv, code, parameters):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.cfg").write_text("seed = 11\n")
    assert main([*argv, "--out", "run.json"]) == code
    assert json.loads((tmp_path / "run.json").read_text())["manifest"]["parameters"] == parameters
    replayed, out, err = run_cli(capsys, "replay", "run.json")
    assert (replayed, err) == (EXIT_OK, "")
    assert json.loads(out)["payload"]["match"] is True


def test_sample_help_names_the_gates(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sample", "--help"])
    assert exit_info.value.code == 0
    assert "none, meanvar, full" in capsys.readouterr().out


@pytest.mark.parametrize(
    "parameters",
    [{"parse": LOOP, "halfLength": 2, "maxHalfLength": 5}, {"maxHalfLength": 5}],
    ids=["both", "neither"],
)
def test_replay_of_shapes_needs_exactly_one_mode(capsys, tmp_path, monkeypatch, parameters):
    monkeypatch.chdir(tmp_path)
    assert main(["shapes", "--parse", LOOP, "--out", "run.json"]) == EXIT_OK
    doc = json.loads((tmp_path / "run.json").read_text())
    doc["manifest"]["parameters"] = parameters
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", "edited.json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: shapes needs exactly one of --half-length or --parse\n"


def _cli_child(argv, timeout=None, preexec_fn=None):
    path = str(Path(meandric.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "meandric.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def test_sample_of_equal_counts_is_strict_json():
    # At n = 5 the half-length-5 weak shape must span the whole base, and
    # seed 0 draws it in none of the 20 systems: the raw normality
    # statistic, the skewness and the excess kurtosis have no value, so
    # they are written as null, not as NaN (which is not JSON) or as the
    # Gaussian's 0, and nothing warns.  The full gate fails the undefined
    # skewness; its variance ratio fails too.
    argv = ["sample", "--n", "5", "--samples", "20", "--shape", WEAK_L5, "--seed", "0"]

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for gate, code in (("none", EXIT_OK), ("full", EXIT_GATE)):
        run = _cli_child([*argv, "--gate", gate])
        assert (run.returncode, run.stderr) == (code, "")
        payload = json.loads(run.stdout, parse_constant=reject)["payload"]
        assert payload["histogram"] == {"0": 20}
        assert payload["adStatisticRaw"] is payload["skewness"] is payload["excessKurtosis"] is None
        if gate == "full":
            checks = {c["name"]: (c["value"], c["pass"]) for c in payload["gates"]["checks"]}
            assert checks["skewness"] == (None, False)
            assert checks["variance-ratio"] == (0.0, False)
        jsonschema.validate(payload, payload_schema("sample"))


def test_sample_shape_too_large(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--n", "3", "--samples", "10", "--shape", WEAK_L5, "--seed", "0"
    )
    assert code == EXIT_USAGE
    assert "cannot fit" in err


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--seed", "-1", "seed -1 outside [0, 2**64)"),
        ("--seed", str(2**64), f"seed {2**64} outside [0, 2**64)"),
        ("--samples", "0", "sample_count must be >= 2"),
        ("--samples", "1", "sample_count must be >= 2"),
        ("--workers", "0", "worker_count must be >= 1"),
        ("--n", "0", "n must be >= 1, got 0"),
        ("--n", "-5", "n must be >= 1, got -5"),
        ("--n", str(2**30), f"n must be below 2**30, got {2**30}"),
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


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["moments", "--n", "9", "--r", "2", "--shape", LOOP],
            "size 9 above cap 8 (23639044 systems); pass --size-cap to override",
        ),
        (
            ["moments", "--mode", "formula", "--n", "9", "--r", "2", "--shape", LOOP,
             "--distribution-csv", "dist.csv"],
            "size 9 above cap 8 (23639044 systems); pass --size-cap to override",
        ),
        (
            ["moments", "--n", "13", "--r", "2", "--shape", LOOP, "--size-cap", "13"],
            "size 13 needs 2**25 position sets for a half-length-1 shape; "
            "the oracle stops at 2**23",
        ),
        (
            ["shapes", "--half-length", "6"],
            "half-length 6 above cap 5; pass --max-half-length to override",
        ),
        # Past n = 20 the system count is left out: near n = 3600 it has more
        # digits than Python will print.
        (
            ["moments", "--n", "1000", "--r", "2", "--shape", LOOP],
            "size 1000 above cap 8; pass --size-cap to override",
        ),
        (
            ["moments", "--mode", "exact", "--n", "4000", "--r", "2", "--shape", LOOP],
            "size 4000 above cap 8; pass --size-cap to override",
        ),
    ],
    ids=["size-cap", "size-cap-csv-only", "mask-width", "max-half-length", "size-cap-n1000",
         "size-cap-n4000"],
)
def test_cap_exceeded_is_refused(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"refused: {message}\n"
    assert not (tmp_path / "dist.csv").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["constants", "--shape", LOOP, "--out", "."], "cannot write .: Is a directory"),
        (
            ["shapes", "--half-length", "1", "--out", "missing/out.json"],
            "cannot write missing/out.json: No such file or directory",
        ),
        (
            ["moments", "--n", "3", "--r", "1", "--shape", LOOP, "--distribution-csv", "."],
            "cannot write .: Is a directory",
        ),
        (
            ["sample", "--n", "5", "--samples", "3", "--shape", LOOP, "--seed", "0", "--csv", "."],
            "cannot write .: Is a directory",
        ),
        (["replay", "empty.json"], "empty.json holds no manifest with parameters"),
        (["replay", "list.json"], "list.json holds no manifest with parameters"),
        (
            ["replay", "text.txt"],
            "text.txt is not a JSON output: Expecting value: line 1 column 1 (char 0)",
        ),
        (["replay", "no-digest.json"], "no-digest.json: manifest has no 'payloadSha256'"),
        (["replay", "no-shape.json"], "no-shape.json: moments parameters have no 'shape'"),
        (["replay", "list-command.json"], "cannot replay subcommand ['sample']"),
        (["replay", "absent.json"], "[Errno 2] No such file or directory: 'absent.json'"),
        (["replay", "folder"], "[Errno 21] Is a directory: 'folder'"),
        (["--config", "folder", "shapes", "--half-length", "1"], "[Errno 21] Is a directory: 'folder'"),
        (
            ["--config", "latin1.cfg", "shapes", "--half-length", "1"],
            "latin1.cfg is not UTF-8 text: invalid continuation byte at byte 9",
        ),
        (
            ["--config", "typo.cfg", "shapes", "--half-length", "1"],
            "typo.cfg: unknown config key 'wrkers'",
        ),
        (
            ["--config", "twice.cfg", "shapes", "--half-length", "1"],
            "twice.cfg: repeated config key 'seed'",
        ),
        (["shapes", "--half-length", "0"], "half-length must be >= 1, got 0"),
        (
            ["constants", "--shape", "supp=1,2;up=1-2"],
            "invalid shape: grammar: missing fields ['lo']",
        ),
        (["shapes", "--parse", "bogus"], "invalid shape: grammar: missing '=' in 'bogus'"),
        (
            ["constants", "--shape", "supp=1,2;up=1-2;lo=1-2;foo=3"],
            "invalid shape: grammar: unknown field 'foo'",
        ),
        (
            ["constants", "--shape", "supp=1,2;up=1-2;lo=1-2;lo=1-2"],
            "invalid shape: grammar: repeated field 'lo'",
        ),
        (
            ["constants", "--shape", "supp=1,3;up=1-3;lo=1-3"],
            "invalid shape: support: rightmost support point must be even",
        ),
        (["constants"], "the following arguments are required: --shape"),
        (["verify", "--out", "."], "cannot write .: Is a directory"),
        (["verify", "--workers", "x"], "argument --workers: invalid int value: 'x'"),
        (
            ["sample", "--n", "3", "--samples", "10", "--shape", WEAK_L5, "--seed", "0"],
            "shape of half-length 5 cannot fit in a size-3 system",
        ),
        (
            ["sample", "--n", "5", "--samples", "3", "--shape", LOOP, "--gate", "bogus"],
            "unknown gate 'bogus'; expected one of none, meanvar, full",
        ),
        (
            ["moments", "--mode", "asymptotic", "--n", "5", "--r", str(10**200), "--shape", LOOP],
            f"the asymptotic log moment at n=5, r={10**200} is beyond the float range",
        ),
        (
            ["moments", "--mode", "asymptotic", "--n", str(10**600), "--r", str(10**308), "--shape", LOOP],
            f"the asymptotic log moment at n={10**600}, r={10**308} is beyond the float range",
        ),
    ],
    ids=[
        "out-dir",
        "out-missing-folder",
        "distribution-csv-dir",
        "csv-dir",
        "replay-empty-manifest",
        "replay-not-object",
        "replay-not-json",
        "replay-no-digest",
        "replay-no-parameter",
        "replay-subcommand-not-text",
        "replay-absent",
        "replay-dir",
        "config-dir",
        "config-not-utf8",
        "config-unknown-key",
        "config-repeated-key",
        "shapes-half-length-0",
        "constants-bad-shape",
        "shapes-parse-bogus",
        "constants-unknown-field",
        "constants-repeated-field",
        "constants-odd-support",
        "constants-no-shape",
        "verify-out-dir",
        "verify-workers-not-int",
        "sample-shape-beyond-n",
        "sample-gate-unknown",
        "asymptotic-r-squared-overflows",
        "asymptotic-infinite",
    ],
)
def test_bad_path_or_input_is_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text('{"manifest": {}}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "text.txt").write_text("not json")
    (tmp_path / "no-digest.json").write_text(
        json.dumps({"manifest": {"subcommand": "shapes", "parameters": {}}})
    )
    (tmp_path / "no-shape.json").write_text(
        json.dumps({"subcommand": "moments", "parameters": {"n": 3}, "payloadSha256": "0" * 64})
    )
    (tmp_path / "list-command.json").write_text(
        json.dumps({"subcommand": ["sample"], "parameters": {}, "payloadSha256": "0" * 64})
    )
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"seed = 1 \xe9\n")
    (tmp_path / "typo.cfg").write_text("seed = 1\nwrkers = 2\n")
    (tmp_path / "twice.cfg").write_text("seed = 1\nseed = 2\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"usage error: {message}\n"


def _refuse_to_work(*args, **kwargs):
    raise AssertionError("work began before the output paths were checked")


@pytest.mark.parametrize(
    "paths,message",
    [
        (
            ["--csv", "s.csv", "--out", "missing/x.json"],
            "cannot write missing/x.json: No such file or directory",
        ),
        (["--csv", "new.csv", "--out", "s.csv/x.json"], "cannot write s.csv/x.json: Not a directory"),
        (["--csv", "folder", "--out", "s.csv"], "cannot write folder: Is a directory"),
    ],
    ids=["out-missing-folder", "out-below-a-file", "csv-dir"],
)
def test_output_paths_are_checked_before_any_work(capsys, tmp_path, monkeypatch, paths, message):
    # No sample is drawn, no side file written, and a file already at a
    # path is not truncated.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("meandric.cli.samples_array", _refuse_to_work)
    (tmp_path / "folder").mkdir()
    if "missing/x.json" not in paths:
        (tmp_path / "s.csv").write_text("kept\n")
    sample = ["sample", "--n", "20", "--samples", "10", "--shape", LOOP, "--seed", "0"]
    code, out, err = run_cli(capsys, *sample, *paths)
    assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n")
    files = {p.name: p.read_text() for p in tmp_path.iterdir() if p.is_file()}
    assert files == ({} if "missing/x.json" in paths else {"s.csv": "kept\n"})


ALIASES = {
    "repeat": ("p", "p"),
    "relative-and-absolute": ("p", "{tmp}/p"),
    "dotted": ("p", "sub/../p"),
    "symlink": ("link", "p"),
    "hard-link": ("p", "hard"),
}


@pytest.mark.parametrize("alias", ALIASES, ids=list(ALIASES))
@pytest.mark.parametrize(
    "command,flag",
    [
        (["sample", "--n", "10", "--samples", "4", "--shape", LOOP], "--csv"),
        (["moments", "--mode", "exact", "--n", "4", "--r", "1", "--shape", LOOP], "--distribution-csv"),
    ],
    ids=["sample", "moments"],
)
def test_side_file_aliasing_out_is_refused_before_any_work(capsys, tmp_path, monkeypatch, command, flag, alias):
    # The payload would overwrite the side file whose digest its manifest
    # records; no work starts and no file is written or truncated.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("meandric.cli.samples_array", _refuse_to_work)
    monkeypatch.setattr("meandric.cli.moment_report", _refuse_to_work)
    monkeypatch.setattr(oracle, "exact_distribution", _refuse_to_work)
    (tmp_path / "sub").mkdir()
    if alias == "symlink":
        (tmp_path / "link").symlink_to("p")  # dangling: p does not exist yet
    if alias == "hard-link":
        (tmp_path / "p").write_text("kept\n")
        os.link(tmp_path / "p", tmp_path / "hard")
    side, out = (path.format(tmp=tmp_path) for path in ALIASES[alias])
    code, stdout, err = run_cli(capsys, *command, flag, side, "--out", out)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err == f"usage error: {flag} {side} and --out {out} name the same file\n"
    kept = {"p": "kept\n", "hard": "kept\n"} if alias == "hard-link" else {}
    assert {p.name: p.read_text() for p in tmp_path.iterdir() if p.is_file()} == kept


def test_distinct_side_file_and_out_both_written(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to("elsewhere")
    code = main(["sample", "--n", "10", "--samples", "4", "--shape", LOOP, "--csv", "link", "--out", "p"])
    assert code == EXIT_OK
    assert (tmp_path / "elsewhere").read_text().startswith("position,x\n")
    assert json.loads((tmp_path / "p").read_text())["manifest"]["parameters"]["csvSha256"]


def test_replay_and_verify_check_their_output_first(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["shapes", "--parse", LOOP, "--out", "run.json"]) == EXIT_OK
    monkeypatch.setattr("meandric.cli._shapes_payload", _refuse_to_work)
    monkeypatch.setattr(verify, "run_suite", _refuse_to_work)
    (tmp_path / "old.json").write_text("kept\n")
    (tmp_path / "old.json").chmod(0o444)
    (tmp_path / "locked").mkdir(mode=0o555)
    if os.access("old.json", os.W_OK):  # permissions do not bind this user (root)
        access = os.access
        denied = ("old.json", "locked")
        monkeypatch.setattr(os, "access", lambda path, mode: path not in denied and access(path, mode))
    cases = [
        (["replay", "run.json", "--out", "missing/r.json"], "missing/r.json: No such file or directory"),
        (["replay", "run.json", "--out", "old.json"], "old.json: Permission denied"),
        (["verify", "--out", "missing/v.json"], "missing/v.json: No such file or directory"),
        (["verify", "--out", "locked/v.json"], "locked/v.json: Permission denied"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: cannot write {message}\n")
    assert (tmp_path / "old.json").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["locked", "old.json", "run.json"]


def test_closed_stdout_is_quiet():
    # The ℓ = 5 listing (86 kB) outgrows the pipe buffer, so the command is
    # still writing when the reader stops after one line.
    path = str(Path(meandric.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.Popen(
        [sys.executable, "-m", "meandric.cli", "shapes", "--half-length", "5", "--max-half-length", "5"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    assert child.wait(timeout=60) == EXIT_OK
    assert child.stderr.read() == b""
    child.stderr.close()


REPLAYED_MOMENTS = ["moments", "--n", "3", "--r", "1"]


@pytest.mark.parametrize(
    "argv,key,value,message",
    [
        (REPLAYED_MOMENTS, "n", "x", "usage error: edited.json: moments parameter 'n' must be an integer, got \"x\""),
        (REPLAYED_MOMENTS, "n", True, "usage error: edited.json: moments parameter 'n' must be an integer, got true"),
        (REPLAYED_MOMENTS, "shape", 5, "usage error: edited.json: moments parameter 'shape' must be a string, got 5"),
        (
            REPLAYED_MOMENTS,
            "mode",
            ["exact"],
            "usage error: edited.json: moments parameter 'mode' must be a string, got [\"exact\"]",
        ),
        (
            REPLAYED_MOMENTS,
            "sizeCap",
            "y",
            "usage error: edited.json: moments parameter 'sizeCap' must be an integer, got \"y\"",
        ),
        (
            REPLAYED_MOMENTS,
            "n",
            1_000_000,
            "refused: size 1000000 above cap 8; pass --size-cap to override",
        ),
        (
            ["sample", "--n", "3", "--samples", "2", "--seed", "0"],
            "gate",
            "bogus",
            "usage error: unknown gate 'bogus'; expected one of none, meanvar, full",
        ),
        (
            ["sample", "--n", "3", "--samples", "2", "--seed", "0"],
            "csvSha256",
            5,
            "usage error: edited.json: sample parameter 'csvSha256' must be a string, got 5",
        ),
        (
            REPLAYED_MOMENTS,
            "distributionCsvSha256",
            None,
            "usage error: edited.json: moments parameter 'distributionCsvSha256' must be a string, got null",
        ),
        (
            ["moments", "--mode", "asymptotic", "--n", "5", "--r", "2"],
            "r",
            10**200,
            f"usage error: the asymptotic log moment at n=5, r={10**200} is beyond the float range",
        ),
    ],
    ids=["n-text", "n-bool", "shape-int", "mode-list", "size-cap-text", "n-above-cap", "gate-unknown",
         "csv-digest-int", "csv-digest-null", "asymptotic-beyond-floats"],
)
def test_replay_of_a_bad_parameter_exits_4(capsys, tmp_path, monkeypatch, argv, key, value, message):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--shape", LOOP, "--out", "run.json"]) == EXIT_OK
    doc = json.loads((tmp_path / "run.json").read_text())
    doc["manifest"]["parameters"][key] = value
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", "edited.json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"{message}\n"


@pytest.mark.parametrize("value", [5, None, ["x"], "abc"], ids=["int", "null", "list", "short"])
def test_replay_of_a_bad_payload_digest_exits_4(capsys, tmp_path, monkeypatch, value):
    # The replay schema's expectedSha256 is 64 lowercase hex digits; a
    # manifest whose payloadSha256 is anything else is refused before the
    # payload is rebuilt.
    monkeypatch.chdir(tmp_path)
    assert main([*REPLAYED_MOMENTS, "--shape", LOOP, "--out", "run.json"]) == EXIT_OK
    doc = json.loads((tmp_path / "run.json").read_text())
    doc["manifest"]["payloadSha256"] = value
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", "edited.json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"usage error: edited.json: payloadSha256 must be 64 lowercase hex digits, got {json.dumps(value)}\n"
    )


@pytest.mark.parametrize(
    "argv,csv_flag,digest_key",
    [
        (["moments", "--mode", "exact", "--n", "4", "--r", "1"], "--distribution-csv", "distributionCsvSha256"),
        (["moments", "--mode", "formula", "--n", "4", "--r", "1"], "--distribution-csv", "distributionCsvSha256"),
        (["sample", "--n", "6", "--samples", "5", "--seed", "3"], "--csv", "csvSha256"),
    ],
    ids=["moments-exact", "moments-formula", "sample"],
)
@pytest.mark.parametrize("edit", [None, "0" * 64], ids=["recorded", "zeroed"])
def test_replay_compares_the_side_file_digest(capsys, tmp_path, monkeypatch, argv, csv_flag, digest_key, edit):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--shape", LOOP, csv_flag, "side.csv", "--out", "run.json"]) == EXIT_OK
    doc = json.loads((tmp_path / "run.json").read_text())
    params = doc["manifest"]["parameters"]
    assert params[digest_key] == hashlib.sha256((tmp_path / "side.csv").read_bytes()).hexdigest()
    if edit is not None:
        params[digest_key] = edit
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", "edited.json")
    assert code == (EXIT_OK if edit is None else EXIT_INVARIANT), err
    payload = json.loads(out)["payload"]
    jsonschema.validate(payload, payload_schema("replay"))
    assert payload["match"] is (edit is None)
    assert payload["recomputedSha256"] == payload["expectedSha256"]  # only the side file differs


@pytest.mark.parametrize(
    "version,digest",
    [("0.1.0", "0" * 64), ("0.1.0", None), (meandric.__version__, "0" * 64)],
    ids=["old-mismatch", "old-match", "same-mismatch"],
)
def test_replay_names_both_versions_on_a_cross_version_mismatch(capsys, tmp_path, monkeypatch, version, digest):
    # Only a mismatch against another version's output gets the extra line;
    # the exit code and the replay payload are those of any replay.
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--n", "6", "--samples", "5", "--seed", "3", "--shape", LOOP, "--out", "run.json"]) == EXIT_OK
    doc = json.loads((tmp_path / "run.json").read_text())
    doc["manifest"]["version"] = version
    if digest is not None:
        doc["manifest"]["payloadSha256"] = digest
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", "edited.json")
    payload = json.loads(out)["payload"]
    assert code == (EXIT_OK if digest is None else EXIT_INVARIANT)
    assert payload["match"] is (digest is None)
    assert payload["expectedSha256"] == doc["manifest"]["payloadSha256"]
    if digest is not None and version != meandric.__version__:
        assert err == (
            f"replay: digests differ; edited.json was made by meandric {version}, "
            f"this is meandric {meandric.__version__}\n"
        )
    else:
        assert err == ""


@pytest.mark.parametrize("mode", ["exact,exact", "formula,asymptotic,formula"])
def test_moments_repeated_mode_is_usage_error(capsys, mode):
    # Like a repeated --config key or shape field: a repeat is more likely a
    # typo than a request, and it would name one payload field twice.
    code, out, err = run_cli(capsys, "moments", "--mode", mode, "--n", "3", "--r", "1", "--shape", LOOP)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"usage error: repeated mode {mode.split(',')[0]!r}\n"


@pytest.mark.parametrize(
    "argv,env",
    [
        (["verify", "--workers", "0"], None),
        (["--config", "workers.cfg", "verify"], None),
        (["verify"], "0"),
    ],
    ids=["verify-flag", "config", "env"],
)
def test_worker_count_below_one_is_usage_error(capsys, tmp_path, monkeypatch, argv, env):
    # Refused before any check runs, whatever the suite.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "workers.cfg").write_text("workers = 0\n")
    if env is not None:
        monkeypatch.setenv("MEANDRIC_WORKERS", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: worker_count must be >= 1\n"


@pytest.mark.parametrize("mode", ["formula", "asymptotic", "formula,asymptotic"])
def test_moment_beyond_float_range(capsys, mode):
    # The simple loop's 100th factorial moment at n = 10**4 is about
    # e**712, beyond the largest float; its log delta stays finite.
    code, out, err = run_cli(capsys, "moments", "--mode", mode, "--n", "10000", "--r", "100",
                             "--shape", LOOP)
    assert code == EXIT_OK
    assert err == ""
    payload = json.loads(out)["payload"]
    assert ("formulaMoment" in payload) == ("formula" in mode)
    if mode == "formula,asymptotic":
        assert abs(payload["deltas"]["logFormulaMinusAsymptotic"]) < 0.05


def test_moment_of_more_copies_than_fit_is_zero_at_once():
    # At n = 4 no system holds 10**7 copies, so every moment is exactly 0,
    # found without building r! (minutes at this r) or stepping through a
    # falling factorial of r factors.  The child is killed at the timeout.
    argv = ["moments", "--mode", "exact,formula,asymptotic", "--n", "4", "--r", "10000000"]
    run = _cli_child([*argv, "--shape", LOOP], timeout=60)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    payload = json.loads(run.stdout)["payload"]
    zero = {"num": "0", "den": "1"}
    assert payload["exactMoment"] == payload["formulaMoment"] == payload["lowerBoundRFr"] == zero
    assert payload["deltas"] == {"exactMinusFormula": 0.0}


def test_out_of_memory_is_refused():
    # One row of 2n + 1 int64 at n = 3 * 10**8 is 4.5 GiB, beyond the
    # child's 2 GiB address space, so the first block cannot be allocated.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = ["sample", "--n", "300000000", "--samples", "2", "--shape", LOOP]
    run = _cli_child(argv, timeout=120, preexec_fn=limit)
    assert (run.returncode, run.stdout) == (EXIT_USAGE, "")
    assert run.stderr.startswith("refused: ") and run.stderr.count("\n") == 1, run.stderr


def test_formula_mismatch_is_an_invariant_violation(capsys, monkeypatch):
    formula = oracle.factorial_moment_strong
    monkeypatch.setattr(oracle, "factorial_moment_strong", lambda *args: formula(*args) + 1)
    argv = ["moments", "--mode", "exact", "--n", "4", "--r", "1", "--shape", LOOP]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.startswith("invariant violation: strong-shape formula ") and err.count("\n") == 1


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
    # Each echo line ends with the check's wall seconds; the payload has none.
    assert re.search(r"^\[PASS\] strong-moment-identity: .+ \(\d+\.\d\d s\)$", out, re.M)
    assert not any(r["detail"].endswith(" s)") for r in doc["payload"]["results"])


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "medium")
    assert code == EXIT_USAGE
    assert err == "usage error: unknown suite 'medium'; expected small or full\n"


@pytest.mark.parametrize("suite", ["medium", "Small", ""])
def test_run_suite_refuses_unknown_names(capsys, monkeypatch, suite):
    def ran(**kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_strong_moment_identity", ran)
    with pytest.raises(ValueError, match=f"^unknown suite {suite!r}; expected small or full$"):
        verify.run_suite(suite)
    assert capsys.readouterr().out == ""


def test_unknown_command(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_import_loads_no_scipy():
    # The runtime needs numpy only: importing ``scipy.special`` took about
    # two thirds of ``import meandric``, which every command pays at startup.
    env = {**os.environ, "PYTHONPATH": str(Path(meandric.__file__).parents[1])}
    code = "import sys, meandric; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_process_pool_and_no_verify():
    # Only ``--workers > 1`` starts a process pool, only ``verify`` runs the
    # acceptance checks and only a draw needs a generator:
    # ``concurrent.futures.process`` (multiprocessing, socket, subprocess,
    # logging), ``meandric.verify`` and ``numpy.random`` load where used.
    env = {**os.environ, "PYTHONPATH": str(Path(meandric.__file__).parents[1])}
    for module in ("meandric", "meandric.cli"):
        code = (
            f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing') or m in ('meandric.verify', 'numpy.random')))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", module


# The exact text of each help page at 80 columns: the guard that building
# the parser from ``_COMMANDS`` changes nothing a user reads.
HELP_TEXT = {
    "meandric": """\
usage: meandric [-h] [--config CONFIG]
                {shapes,constants,moments,sample,verify,replay} ...

Exact and Monte Carlo statistics of loop shapes in random meandric systems.

positional arguments:
  {shapes,constants,moments,sample,verify,replay}
    shapes              enumerate shapes of one half-length, or validate one
    constants           placement constants and CLT parameters of a shape
    moments             factorial moments: exact, closed form, asymptotic
    sample              Monte Carlo shape-count experiment
    verify              run the acceptance checks
    replay              recompute a previous output and compare digests

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value config file

Config file: plain key=value lines (comments with #); the keys are workers and
seed, each at most once. Flags override the config file, which overrides the
MEANDRIC_WORKERS environment variable.
""",
    "shapes": """\
usage: meandric shapes [-h] [--half-length HALF_LENGTH] [--parse PARSE]
                       [--max-half-length MAX_HALF_LENGTH] [--out OUT]

options:
  -h, --help            show this help message and exit
  --half-length HALF_LENGTH
  --parse PARSE         shape text to validate (supp=..;up=..;lo=..)
  --max-half-length MAX_HALF_LENGTH
  --out OUT
""",
    "constants": """\
usage: meandric constants [-h] --shape SHAPE [--out OUT]

options:
  -h, --help     show this help message and exit
  --shape SHAPE
  --out OUT
""",
    "moments": """\
usage: meandric moments [-h] [--mode MODE] --n N --r R --shape SHAPE
                        [--size-cap SIZE_CAP] [--distribution-csv CSV]
                        [--out OUT]

options:
  -h, --help            show this help message and exit
  --mode MODE           comma list of exact,formula,asymptotic, each at most
                        once
  --n N
  --r R
  --shape SHAPE
  --size-cap SIZE_CAP
  --distribution-csv CSV
                        also write the exact count distribution as (x, count)
                        rows
  --out OUT
""",
    "sample": """\
usage: meandric sample [-h] --n N --samples SAMPLES --shape SHAPE
                       [--seed SEED] [--workers WORKERS] [--gate GATE]
                       [--csv CSV] [--out OUT]

options:
  -h, --help         show this help message and exit
  --n N
  --samples SAMPLES
  --shape SHAPE
  --seed SEED
  --workers WORKERS
  --gate GATE        one of none, meanvar, full
  --csv CSV          write per-sample (position, count) rows here
  --out OUT
""",
    "verify": """\
usage: meandric verify [-h] [--suite SUITE] [--workers WORKERS] [--out OUT]

options:
  -h, --help         show this help message and exit
  --suite SUITE
  --workers WORKERS
  --out OUT
""",
    "replay": """\
usage: meandric replay [-h] [--out OUT] manifest

positional arguments:
  manifest    path to a previous JSON output (or bare manifest)

options:
  -h, --help  show this help message and exit
  --out OUT
""",
}


def _help_page(capsys, monkeypatch, *argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize("page", sorted(HELP_TEXT))
def test_help_text(capsys, monkeypatch, page):
    argv = [] if page == "meandric" else [page]
    assert _help_page(capsys, monkeypatch, *argv) == HELP_TEXT[page]


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (
            ["frobnicate"],
            "argument command: invalid choice: 'frobnicate' "
            "(choose from 'shapes', 'constants', 'moments', 'sample', 'verify', 'replay')",
        ),
        (["moments", "--n", "9"], "the following arguments are required: --r, --shape"),
        (["sample", "--n", "x", "--samples", "3", "--shape", LOOP], "argument --n: invalid int value: 'x'"),
        (["shapes", "--half-length", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["--config", "cfg"], "the following arguments are required: command"),
        (["--config", "cfg", "frobnicate"], "argument command: invalid choice: 'frobnicate' "
         "(choose from 'shapes', 'constants', 'moments', 'sample', 'verify', 'replay')"),
        (["--config", "cfg", "moments", "--r", "1"], "the following arguments are required: --n, --shape"),
    ],
    ids=["no-subcommand", "unknown-subcommand", "missing-flag", "bad-int", "unrecognized",
         "config-only", "config-unknown-subcommand", "config-missing-flag"],
)
def test_usage_error_text(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "spelled",
    [
        ["sample", "--sam", "3", "--n", "6", "--shape", LOOP, "--seed", "2"],
        ["sample", "--samples=3", "--n=6", f"--shape={LOOP}", "--seed=2"],
        ["sample", "--sa=3", "--n", "6", "--sh", LOOP, "--see=2", "--g", "none"],
    ],
    ids=["abbreviated", "equals", "both"],
)
def test_abbreviated_and_equals_flags_parse_alike(capsys, tmp_path, monkeypatch, spelled):
    monkeypatch.chdir(tmp_path)
    plain = ["sample", "--n", "6", "--samples", "3", "--shape", LOOP, "--seed", "2"]
    docs = []
    for argv in (plain, spelled):
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_OK
        docs.append(doc)
    assert docs[1]["manifest"]["parameters"] == docs[0]["manifest"]["parameters"]
    assert docs[1]["payload"] == docs[0]["payload"]


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


# Each command line of the README's "Command line" section, then the
# spellings of the benchmark's CLI requests (perfbench/workload.py).
DOCUMENTED = [
    ["shapes", "--half-length", "2"],
    ["shapes", "--parse", LOOP],
    ["constants", "--shape", LOOP],
    ["moments", "--mode", "exact,formula", "--n", "5", "--r", "2", "--shape", LOOP,
     "--distribution-csv", "dist.csv"],
    ["sample", "--n", "2000", "--samples", "20000", "--shape", LOOP, "--seed", "20260810",
     "--workers", "4", "--gate", "full", "--csv", "samples.csv"],
    ["verify", "--suite", "small"],
    ["verify", "--suite", "full", "--workers", "4"],
    ["replay", "out.json"],
    ["sample", "--n", "2000", "--samples", "2048", "--shape", LOOP, "--seed", "8237465501",
     "--workers", "1", "--csv", ".bench_out/sample.csv", "--out", ".bench_out/sample.json"],
    ["moments", "--mode", "exact,formula", "--n", "9", "--r", "3", "--shape", LOOP, "--size-cap", "9",
     "--distribution-csv", ".bench_out/oracle.csv", "--out", ".bench_out/oracle.json"],
    ["moments", "--mode", "formula,asymptotic", "--n", "100000", "--r", "50", "--shape", LOOP,
     "--out", ".bench_out/formula0.json"],
    ["moments", "--mode", "formula,asymptotic", "--n", "100000", "--r", "50", "--shape", STRONG_L6,
     "--out", ".bench_out/formula1.json"],
]


def test_documented_spellings_build_no_parser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    for argv in DOCUMENTED:
        assert _parse_plain(argv) is not None, argv
    code, _ = run_json(capsys, "moments", "--mode", "formula", "--n", "9", "--r", "2", "--shape", LOOP)
    assert code == EXIT_OK
    assert built == []
    for argv in DOCUMENTED:
        assert vars(_parse_plain(argv)) == vars(build_parser().parse_args(argv)), argv


_VALUES = ["3", "0", "-1", "x", "", " 7", "1_0", LOOP, "-x", "m.json"]
_FLAGS = {
    name: [param.flag for param in (*command.params, *filter(None, [command.side_file]))] + ["--out"]
    for name, command in _COMMANDS.items()
}
_TOKENS = sorted(
    {*_COMMANDS, *(flag for flags in _FLAGS.values() for flag in flags), "--config", "-h", "--help", "--",
     "--sa", "--n=3", f"--shape={LOOP}", *_VALUES}
)


@st.composite
def _spelled(draw):
    """A subcommand and some of its arguments, each a flag and a value (or
    replay's positional alone) in any order, perhaps with a ``--config``
    in front and a stray token inserted."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = draw(st.permutations(_FLAGS[name]))
    argv = [name]
    for flag in flags[: draw(st.integers(0, len(flags)))]:
        value = draw(st.sampled_from(_VALUES))
        argv += [flag, value] if flag.startswith("-") else [value]
    if draw(st.booleans()):
        argv[:0] = ["--config", draw(st.sampled_from(_VALUES))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(_TOKENS), max_size=12),
        st.sampled_from(DOCUMENTED).flatmap(st.permutations),
        _spelled(),
    )
)
def test_plain_parse_agrees_with_argparse(argv):
    # Whatever the plain path accepts, argparse accepts with the same
    # namespace: the subcommand, ``func``, ``config``, ``csv`` and
    # ``workers`` where declared, each flag's value or default.
    plain = _parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_help_names_every_declared_flag(capsys, monkeypatch, name):
    # Table-driven: each flag ``_COMMANDS`` declares, its side file's too,
    # is on the subcommand's help page.
    page = _help_page(capsys, monkeypatch, name)
    command = _COMMANDS[name]
    for param in (*command.params, *filter(None, [command.side_file])):
        assert re.search(rf"(^|\s){re.escape(param.flag)}(\s|$)", page), param.flag


def test_replay_without_size_cap_runs_at_the_default(capsys, tmp_path, monkeypatch):
    # A manifest that leaves out ``sizeCap`` replays at the declared default.
    monkeypatch.chdir(tmp_path)
    assert main(["moments", "--mode", "exact", "--n", "6", "--r", "2", "--shape", LOOP, "--out", "run.json"]) == EXIT_OK
    doc = json.loads((tmp_path / "run.json").read_text())
    del doc["manifest"]["parameters"]["sizeCap"]
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", "edited.json")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["payload"]["match"] is True
