"""Each correctness check of the benchmark passes on a real output of
``meandric`` at a small size and rejects a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from meandric import cli, count_shape, matching_uniformity, sample_system, simple_loop

import checks
import tracing

SIMPLE = "supp=1,2;up=1-2;lo=1-2"
L6 = "supp=1,4,7,12;up=1-4,7-12;lo=1-12,4-7"


def _rehash(doc: dict) -> dict:
    doc["manifest"]["payloadSha256"] = checks.payload_digest(doc["payload"])
    return doc


def _wire(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


@pytest.fixture(scope="module")
def sample_output(tmp_path_factory):
    d = tmp_path_factory.mktemp("sample")
    n, samples, seed = 60, 64, 5
    argv = ["sample", "--n", str(n), "--samples", str(samples), "--shape", SIMPLE, "--seed", str(seed),
            "--workers", "1", "--csv", str(d / "s.csv"), "--out", str(d / "s.json")]
    assert cli.main(argv) == 0
    traced = {p: count_shape(sample_system(n, p, seed), simple_loop()) for p in (0, 17, 63)}
    return json.loads((d / "s.json").read_text()), (d / "s.csv").read_text(), n, samples, traced


def test_sample_check_passes(sample_output):
    assert checks.check_sample(*sample_output) == []


def test_sample_check_rejects_wrong_digest(sample_output):
    doc, text, n, samples, traced = sample_output
    bad = json.loads(json.dumps(doc))
    bad["payload"]["mean"] += 1
    assert any("payloadSha256" in p for p in checks.check_sample(bad, text, n, samples, traced))


def test_sample_check_rejects_missing_row(sample_output):
    doc, text, n, samples, traced = sample_output
    lines = text.splitlines(keepends=True)
    bad = "".join(lines[:-1])
    assert any("one row per position" in p for p in checks.check_sample(doc, bad, n, samples, traced))


def test_sample_check_rejects_count_that_disagrees_with_tracing(sample_output):
    doc, text, n, samples, traced = sample_output
    bad = {p: c + 1 if p == 17 else c for p, c in traced.items()}
    assert checks.check_sample(doc, text, n, samples, bad) == [
        f"position 17: CSV count {traced[17]}, tracing {traced[17] + 1}"
    ]


def test_sample_check_rejects_histogram_mismatch(sample_output):
    doc, text, n, samples, traced = sample_output
    lines = text.splitlines(keepends=True)
    position, x = lines[31].strip().split(",")
    lines[31] = f"{position},{int(x) + 1}\n"
    assert any("histogram" in p for p in checks.check_sample(doc, "".join(lines), n, samples, traced))


def test_sample_check_rejects_mean_far_from_exact(sample_output):
    doc, text, n, samples, _ = sample_output
    shift = 10
    lines = text.splitlines()
    bad_text = "\n".join([lines[0]] + [f"{p},{int(x) + shift}" for p, x in (l.split(",") for l in lines[1:])]) + "\n"
    bad = json.loads(json.dumps(doc))
    bad["payload"]["histogram"] = {str(int(x) + shift): c for x, c in doc["payload"]["histogram"].items()}
    problems = checks.check_sample(_rehash(bad), bad_text, n, samples, {})
    assert len(problems) == 1 and "standard errors" in problems[0]


@pytest.fixture(scope="module")
def uniformity_report():
    return matching_uniformity(4, 2000, 1)


def test_uniformity_check_passes(uniformity_report):
    r = uniformity_report
    assert checks.check_uniformity(list(r.counts), r.draws, 4, r.p_value) == []


def test_uniformity_check_rejects_missing_matching(uniformity_report):
    r = uniformity_report
    counts = list(r.counts)
    last = counts.pop()
    counts[0] += last
    assert checks.check_uniformity(counts, r.draws, 4, r.p_value) == ["13 outcomes, catalan(4) = 14"]


def test_uniformity_check_rejects_lost_draw(uniformity_report):
    r = uniformity_report
    counts = list(r.counts)
    counts[3] -= 1
    assert checks.check_uniformity(counts, r.draws, 4, r.p_value) == [f"counts sum to {r.draws - 1}, not {r.draws}"]


def test_uniformity_check_rejects_small_p_value(uniformity_report):
    r = uniformity_report
    assert len(checks.check_uniformity(list(r.counts), r.draws, 4, 1e-7)) == 1


@pytest.fixture(scope="module")
def oracle_output(tmp_path_factory):
    d = tmp_path_factory.mktemp("oracle")
    argv = ["moments", "--mode", "exact,formula", "--n", "5", "--r", "3", "--shape", SIMPLE,
            "--distribution-csv", str(d / "d.csv"), "--out", str(d / "o.json")]
    assert cli.main(argv) == 0
    return json.loads((d / "o.json").read_text()), (d / "d.csv").read_text()


def test_oracle_check_passes(oracle_output):
    doc, text = oracle_output
    assert checks.check_oracle(doc, text, 5, 3, SIMPLE) == []


def test_oracle_check_rejects_total_off_by_one(oracle_output):
    doc, text = oracle_output
    lines = text.splitlines()
    x, c = lines[1].split(",")
    bad = "\n".join([lines[0], f"{x},{int(c) + 1}", *lines[2:]]) + "\n"
    assert checks.check_oracle(doc, bad, 5, 3, SIMPLE) == [f"distribution total {42**2 + 1} != catalan(5)**2"]


def test_oracle_check_rejects_moved_system(oracle_output):
    doc, text = oracle_output
    dist = {int(x): int(c) for x, c in (l.split(",") for l in text.splitlines()[1:])}
    dist[1] -= 1
    dist[2] += 1
    bad = "x,count\n" + "".join(f"{x},{c}\n" for x, c in sorted(dist.items()))
    problems = checks.check_oracle(doc, bad, 5, 3, SIMPLE)
    assert problems and all(p.startswith("factorial moment") for p in problems)


def test_oracle_check_rejects_moment_off_by_one_part_in_1e9(oracle_output):
    doc, text = oracle_output
    bad = json.loads(json.dumps(doc))
    exact = Fraction(int(doc["payload"]["exactMoment"]["num"]), int(doc["payload"]["exactMoment"]["den"]))
    bad["payload"]["exactMoment"] = _wire(exact * (1 + Fraction(1, 10**9)))
    problems = checks.check_oracle(_rehash(bad), text, 5, 3, SIMPLE)
    assert len(problems) == 1 and problems[0].startswith("exactMoment")


@pytest.fixture(scope="module", params=[SIMPLE, L6])
def formula_output(request, tmp_path_factory):
    d = tmp_path_factory.mktemp("formula")
    argv = ["moments", "--mode", "formula,asymptotic", "--n", "50000", "--r", "10", "--shape", request.param,
            "--out", str(d / "f.json")]
    assert cli.main(argv) == 0
    return json.loads((d / "f.json").read_text()), request.param


def test_formula_check_passes(formula_output):
    doc, shape = formula_output
    assert checks.check_formula(doc, 50000, 10, shape) == []


def test_formula_check_rejects_moment_off_by_one_part_in_1e9(formula_output):
    doc, shape = formula_output
    bad = json.loads(json.dumps(doc))
    moment = Fraction(int(doc["payload"]["formulaMoment"]["num"]), int(doc["payload"]["formulaMoment"]["den"]))
    bad["payload"]["formulaMoment"] = _wire(moment * (1 + Fraction(1, 10**9)))
    assert checks.check_formula(_rehash(bad), 50000, 10, shape) == [
        "formulaMoment differs from the telescoping product"
    ]


def test_formula_check_rejects_moment_off_in_log(formula_output):
    doc, shape = formula_output
    bad = json.loads(json.dumps(doc))
    moment = Fraction(int(doc["payload"]["formulaMoment"]["num"]), int(doc["payload"]["formulaMoment"]["den"]))
    bad["payload"]["formulaMoment"] = _wire(moment * Fraction(1001, 1000))
    problems = checks.check_formula(_rehash(bad), 50000, 10, shape)
    assert any("log-gamma" in p for p in problems)


def test_formula_check_rejects_far_asymptotic(formula_output):
    doc, shape = formula_output
    bad = json.loads(json.dumps(doc))
    bad["payload"]["asymptoticLogMoment"] += 0.02
    assert checks.check_formula(_rehash(bad), 50000, 10, shape) == [
        "log formulaMoment is 0.01 or more from asymptoticLogMoment"
    ]


def test_layer_metrics_self_time_and_nesting():
    spans = [
        (1, 0, "cli.main", 0.0, 10.0),
        (2, 1, "sampling.run_experiment", 1.0, 5.0),
        (3, 2, "sampling.samples_array", 1.5, 4.5),
        (4, 1, "sampling.samples_array", 5.0, 8.0),
        (5, 0, "analysis.shape_constants", 10.0, 11.0),
        (6, 5, "analysis.shape_constants", 10.2, 10.4),
    ]
    m = tracing.layer_metrics(spans)
    assert m["sampling.samples_array.calls"] == 2
    assert m["sampling.samples_array.s"] == 6.0
    assert m["sampling.summary_s"] == 1.0
    assert m["cli.self_s"] == 3.0
    assert m["analysis.shape_constants.s"] == 1.0
    assert m["oracle.self_s"] == 0.0
