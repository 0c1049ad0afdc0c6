"""Command line interface.

Subcommands expose the library: ``shapes`` (enumerate/validate), ``constants``
(placement constants and CLT parameters), ``moments`` (exact / closed-form /
asymptotic factorial moments), ``sample`` (Monte Carlo experiments with
optional statistical gates), ``verify`` (the acceptance checks), and
``replay`` (re-run a previous output's manifest and compare digests).

Every JSON output is wrapped as ``{"manifest": ..., "payload": ...}``; the
manifest records the subcommand, the fully resolved parameters, the engine
version, and the SHA-256 of the canonical payload encoding, which is enough
to reproduce the payload byte for byte.

Exit codes: 0 success, 2 statistical gate failure, 3 invariant violation,
4 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from typing import Sequence

from . import __version__
from .analysis import (
    constants_report,
    disjoint_moment_term,
    factorial_moment_strong,
    fraction_json,
    log_factorial_moment_asymptotic,
    shape_constants,
)
from .errors import MeandricError, WeakShapeError
from .meanders import enumerate_shapes, format_shape, parse_shape
from .oracle import moment_report
from .sampling import (
    ExperimentConfig,
    SampleSummary,
    evaluate_gates,
    run_experiment,
    samples_array,
    samples_csv,
    summarize_samples,
)
from . import verify as verify_mod

EXIT_OK = 0
EXIT_GATE = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 4

ENV_WORKERS = "MEANDRIC_WORKERS"


def payload_schema(subcommand: str) -> dict:
    """The shipped JSON schema for a subcommand's payload (or for the
    ``manifest`` envelope)."""
    from importlib import resources

    path = resources.files("meandric") / "schemas" / f"{subcommand}.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise UsageError(f"no schema shipped for {subcommand!r}") from None


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _emit(subcommand: str, parameters: dict, payload, out_path: str | None) -> None:
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "version": __version__,
        "seed": parameters.get("seed"),
        "createdUtc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "payloadSha256": hashlib.sha256(_canonical(payload)).hexdigest(),
    }
    text = json.dumps({"manifest": manifest, "payload": payload}, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_config(path: str | None) -> dict[str, str]:
    """Key=value config file; '#' starts a comment."""
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"bad config line {raw.rstrip()!r}")
            values[key.strip()] = value.strip()
    return values


def _as_int(text: str, origin: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{origin} must be an integer, got {text!r}") from None


def _resolve_workers(flag_value: int | None, config: dict[str, str]) -> int:
    if flag_value is not None:
        return flag_value
    if "workers" in config:
        return _as_int(config["workers"], "config workers")
    env = os.environ.get(ENV_WORKERS)
    if env:
        return _as_int(env, ENV_WORKERS)
    return 1


# ---------------------------------------------------------------------------
# Payload builders (shared by the subcommands and replay)
# ---------------------------------------------------------------------------


def _shapes_payload(params: dict) -> dict:
    if "parse" in params:
        shape = parse_shape(params["parse"])
        return {
            "valid": True,
            "shape": format_shape(shape),
            "ell": shape.half_length,
            "supportSize": len(shape.support),
        }
    shapes = enumerate_shapes(params["halfLength"], max_half_length=params["maxHalfLength"])
    return {
        "ell": params["halfLength"],
        "count": len(shapes),
        "shapes": [
            {"id": f"{params['halfLength']}.{k}", "shape": format_shape(s)}
            for k, s in enumerate(shapes, start=1)
        ],
    }


def _constants_payload(params: dict) -> dict:
    return constants_report(parse_shape(params["shape"]))


def _moments_payload(params: dict) -> tuple[dict, dict[int, int] | None]:
    """Moments payload plus the exact count distribution, when the exact
    mode computed one."""
    shape = parse_shape(params["shape"])
    n, r = params["n"], params["r"]
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if r < 0:
        raise UsageError(f"r must be >= 0, got {r}")
    modes = params["mode"].split(",")
    for mode in modes:
        if mode not in ("exact", "formula", "asymptotic"):
            raise UsageError(f"unknown mode {mode!r}")
    constants = shape_constants(shape)
    payload: dict = {"n": n, "r": r, "shape": format_shape(shape), "strong": constants.is_strong}
    values: dict[str, float] = {}
    distribution = None
    if "exact" in modes:
        report = moment_report(n, r, shape, size_cap=params.get("sizeCap", 8))
        distribution = report.distribution
        payload["exactMoment"] = fraction_json(report.exact_moment)
        payload["lowerBoundRFr"] = fraction_json(report.lower_bound)
        values["exact"] = float(report.exact_moment)
    if "formula" in modes:
        if not constants.is_strong and r >= 2:
            raise WeakShapeError(
                "the closed-form factorial moment assumes a strong shape (copies can "
                "never overlap); this shape is weak at offsets "
                f"{[o.offset for o in constants.overlaps]}, so only r <= 1 or the "
                "exact/asymptotic modes apply"
            )
        if constants.is_strong:
            formula = factorial_moment_strong(n, r, shape)
        else:  # weak with r <= 1: single copies cannot overlap
            formula = math.factorial(r) * disjoint_moment_term(n, r, shape)
        payload["formulaMoment"] = fraction_json(formula)
        values["formula"] = float(formula)
    if "asymptotic" in modes:
        payload["asymptoticLogMoment"] = log_factorial_moment_asymptotic(n, r, shape)
    if len(values) == 2:
        payload["deltas"] = {"exactMinusFormula": values["exact"] - values["formula"]}
    if "asymptotic" in modes:
        deltas = payload.setdefault("deltas", {})
        for name in ("exact", "formula"):
            if values.get(name, 0) > 0:
                deltas[f"log{name.capitalize()}MinusAsymptotic"] = (
                    math.log(values[name]) - payload["asymptoticLogMoment"]
                )
    return payload, distribution


def _sample_config(params: dict, worker_count: int) -> ExperimentConfig:
    shape = parse_shape(params["shape"])
    try:
        return ExperimentConfig(
            n=params["n"],
            sample_count=params["samples"],
            shape=shape,
            seed=params["seed"],
            worker_count=worker_count,
        )
    except ValueError as exc:  # seed, sample count or worker count out of range
        raise UsageError(str(exc)) from None


def _sample_payload(params: dict, summary: SampleSummary) -> tuple[dict, bool]:
    """Summary payload plus the gate verdict (True when no gate fails)."""
    payload = summary.to_json_dict()
    ok = True
    if params.get("gate", "none") != "none":
        gates = evaluate_gates(summary, params["gate"])
        payload["gates"] = gates.to_json_dict()
        ok = gates.all_pass
    return payload, ok


_REPLAYERS = {
    "shapes": lambda params: _shapes_payload(params),
    "constants": lambda params: _constants_payload(params),
    "moments": lambda params: _moments_payload(params)[0],
    "sample": lambda params: _sample_payload(
        params, run_experiment(_sample_config(params, worker_count=1))
    )[0],
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_shapes(args, config) -> int:
    if (args.half_length is None) == (args.parse is None):
        raise UsageError("shapes needs exactly one of --half-length or --parse")
    if args.parse is not None:
        params = {"parse": args.parse}
    else:
        params = {"halfLength": args.half_length, "maxHalfLength": args.max_half_length}
    _emit("shapes", params, _shapes_payload(params), args.out)
    return EXIT_OK


def _cmd_constants(args, config) -> int:
    params = {"shape": args.shape}
    _emit("constants", params, _constants_payload(params), args.out)
    return EXIT_OK


def _cmd_moments(args, config) -> int:
    params = {
        "n": args.n,
        "r": args.r,
        "shape": args.shape,
        "mode": args.mode,
        "sizeCap": args.size_cap,
    }
    payload, distribution = _moments_payload(params)
    if args.distribution_csv:
        from .oracle import distribution_csv, exact_distribution

        if distribution is None:
            shape = parse_shape(args.shape)
            distribution = exact_distribution(args.n, shape, size_cap=args.size_cap)
        text = distribution_csv(distribution)
        with open(args.distribution_csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        params["distributionCsvSha256"] = hashlib.sha256(text.encode()).hexdigest()
    _emit("moments", params, payload, args.out)
    return EXIT_OK


def _cmd_sample(args, config) -> int:
    workers = _resolve_workers(args.workers, config)
    seed = args.seed if args.seed is not None else _as_int(config.get("seed", "0"), "config seed")
    params = {
        "n": args.n,
        "samples": args.samples,
        "shape": args.shape,
        "seed": seed,
        "gate": args.gate,
    }
    cfg = _sample_config(params, worker_count=workers)
    xs = samples_array(cfg)
    payload, gates_ok = _sample_payload(params, summarize_samples(cfg, xs))
    if args.csv:
        text = samples_csv(xs)
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        params["csvSha256"] = hashlib.sha256(text.encode()).hexdigest()
    _emit("sample", params, payload, args.out)
    return EXIT_OK if gates_ok else EXIT_GATE


def _cmd_verify(args, config) -> int:
    if args.suite not in ("small", "full"):
        raise UsageError(f"unknown suite {args.suite!r}; expected small or full")
    workers = _resolve_workers(args.workers, config)
    results = verify_mod.run_suite(args.suite, worker_count=workers, echo=True)
    payload = {
        "suite": args.suite,
        "results": [{"check": name, "pass": ok, "detail": detail} for name, ok, detail in results],
        "pass": all(ok for _, ok, _ in results),
    }
    _emit("verify", {"suite": args.suite}, payload, args.out)
    return EXIT_OK if payload["pass"] else EXIT_GATE


def _cmd_replay(args, config) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        doc = json.load(fh)
    manifest = doc.get("manifest", doc)
    sub = manifest["subcommand"]
    if sub not in _REPLAYERS:
        raise UsageError(f"cannot replay subcommand {sub!r}")
    rebuilt = _REPLAYERS[sub](manifest["parameters"])
    digest = hashlib.sha256(_canonical(rebuilt)).hexdigest()
    ok = digest == manifest["payloadSha256"]
    payload = {
        "subcommand": sub,
        "expectedSha256": manifest["payloadSha256"],
        "recomputedSha256": digest,
        "match": ok,
    }
    _emit("replay", {"manifest": args.manifest}, payload, args.out)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="meandric",
        description="Exact and Monte Carlo statistics of loop shapes in random meandric systems.",
        epilog=(
            "Config file: plain key=value lines (comments with #); recognized keys: "
            "workers, seed.  Flags override the config file, which overrides the "
            f"{ENV_WORKERS} environment variable."
        ),
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapes", help="enumerate shapes of one half-length, or validate one")
    p.add_argument("--half-length", type=int, dest="half_length")
    p.add_argument("--parse", help="shape text to validate (supp=..;up=..;lo=..)")
    p.add_argument("--max-half-length", type=int, default=5, dest="max_half_length")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("constants", help="placement constants and CLT parameters of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("moments", help="factorial moments: exact, closed form, asymptotic")
    p.add_argument("--mode", default="exact", help="comma list of exact,formula,asymptotic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--size-cap", type=int, default=8, dest="size_cap")
    p.add_argument(
        "--distribution-csv",
        dest="distribution_csv",
        help="also write the exact count distribution as (x, count) rows",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("sample", help="Monte Carlo shape-count experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--gate", choices=["none", "meanvar", "full"], default="none")
    p.add_argument("--csv", help="write per-sample (position, count) rows here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--suite", default="small")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("replay", help="recompute a previous output and compare digests")
    p.add_argument("manifest", help="path to a previous JSON output (or bare manifest)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _read_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WeakShapeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeandricError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
