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
4 usage error or refused input (shape text that is not a valid shape, a
shape too large for the size, a weak shape's closed form at r >= 2, a
size above a cap, an array too large for memory).

Moments are exact rationals, written in full; their log deltas are taken
from numerator and denominator, so they stay finite beyond the float range.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .analysis import (
    _log_fraction,
    constants_report,
    disjoint_moment_term,  # noqa: F401  (perfbench/tracing.py wraps this global)
    factorial_moment_strong,
    fraction_json,
    log_factorial_moment_asymptotic,
    shape_constants,
)
from .errors import CapExceededError, InvalidShapeError, MeandricError, WeakShapeError
from .meanders import DEFAULT_SHAPE_CAP, Shape, enumerate_shapes, format_shape, parse_shape
from .oracle import DEFAULT_SIZE_CAP, moment_report
from .sampling import (
    GATE_PROFILES,
    ExperimentConfig,
    evaluate_gates,
    run_experiment,  # noqa: F401  (perfbench/tracing.py wraps this global)
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

# The flag that sets each library cap a CapExceededError can name.
_CAP_FLAGS = {"size_cap": "--size-cap", "max_half_length": "--max-half-length"}

_GATES = ("none", *GATE_PROFILES)

# The type a manifest parameter must have to be replayed: the type its
# flag parses to.  Unlisted parameters (side-file digests) are compared.
_PARAM_TYPES = {
    **dict.fromkeys(("n", "r", "sizeCap", "samples", "seed", "halfLength", "maxHalfLength"), int),
    **dict.fromkeys(("shape", "mode", "gate", "parse"), str),
}


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
        _write_output(out_path, text + "\n")
    else:
        print(text)


def _write_output(path: str, text: str) -> None:
    """Write one output file; a path that cannot be written to (a
    directory, a missing folder, no permission) is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _read_input(path: str) -> str:
    """Text of one input file; a path that cannot be read (missing, a
    directory, no permission) or text that is not UTF-8 is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_config(path: str | None) -> dict[str, str]:
    """Key=value config file of the keys workers and seed, each at most
    once; '#' starts a comment."""
    if not path:
        return {}
    values: dict[str, str] = {}
    for raw in _read_input(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"bad config line {raw.rstrip()!r}")
        key = key.strip()
        if key not in ("workers", "seed"):
            raise UsageError(f"{path}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}: repeated config key {key!r}")
        values[key] = value.strip()
    return values


def _as_int(text: str, origin: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{origin} must be an integer, got {text!r}") from None


def _shape(text: str) -> Shape:
    """The shape given on the command line; text that is not a valid
    shape is a usage error."""
    try:
        return parse_shape(text)
    except InvalidShapeError as exc:
        raise UsageError(f"invalid shape: {exc}") from None


def _resolve_workers(flag_value: int | None, config: dict[str, str]) -> int:
    """Worker count from the flag, else the config file, else the
    environment, else 1; a count below 1 is a usage error."""
    if flag_value is not None:
        workers = flag_value
    elif "workers" in config:
        workers = _as_int(config["workers"], "config workers")
    else:
        workers = _as_int(os.environ.get(ENV_WORKERS) or "1", ENV_WORKERS)
    if workers < 1:
        raise UsageError("worker_count must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# Payload builders (shared by the subcommands and replay)
# ---------------------------------------------------------------------------


def _shapes_payload(params: dict) -> dict:
    if "parse" in params:
        shape = _shape(params["parse"])
        return {
            "valid": True,
            "shape": format_shape(shape),
            "ell": shape.half_length,
            "supportSize": len(shape.support),
        }
    if params["halfLength"] < 1:
        raise UsageError(f"half-length must be >= 1, got {params['halfLength']}")
    shapes = enumerate_shapes(params["halfLength"], max_half_length=params["maxHalfLength"])
    return {
        "ell": params["halfLength"],
        "count": len(shapes),
        "shapes": [
            {"id": f"{params['halfLength']}.{k}", "shape": format_shape(s)}
            for k, s in enumerate(shapes, start=1)
        ],
    }


def _moments_output(params: dict, workers: int, csv: bool) -> tuple[dict, str | None]:
    """Moments payload plus, when ``csv`` is set, the exact count
    distribution as CSV text (enumerated here unless the exact mode
    already did)."""
    shape = _shape(params["shape"])
    n, r = params["n"], params["r"]
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if r < 0:
        raise UsageError(f"r must be >= 0, got {r}")
    modes = params["mode"].split(",")
    for k, mode in enumerate(modes):
        if mode not in ("exact", "formula", "asymptotic"):
            raise UsageError(f"unknown mode {mode!r}")
        if mode in modes[:k]:
            raise UsageError(f"repeated mode {mode!r}")
    constants = shape_constants(shape)
    payload: dict = {"n": n, "r": r, "shape": format_shape(shape), "strong": constants.is_strong}
    values: dict[str, Fraction] = {}
    distribution = None
    if "exact" in modes:
        report = moment_report(n, r, shape, size_cap=params.get("sizeCap", DEFAULT_SIZE_CAP))
        distribution = report.distribution
        payload["exactMoment"] = fraction_json(report.exact_moment)
        payload["lowerBoundRFr"] = fraction_json(report.lower_bound)
        values["exact"] = report.exact_moment
    if "formula" in modes:
        formula = factorial_moment_strong(n, r, shape)
        payload["formulaMoment"] = fraction_json(formula)
        values["formula"] = formula
    if "asymptotic" in modes:
        payload["asymptoticLogMoment"] = log_factorial_moment_asymptotic(n, r, shape)
    if len(values) == 2:
        payload["deltas"] = {"exactMinusFormula": float(values["exact"] - values["formula"])}
    if "asymptotic" in modes:
        deltas = payload.setdefault("deltas", {})
        for name in ("exact", "formula"):
            value = values.get(name, 0)
            if value > 0:  # the log of a rational beyond the float range is still finite
                deltas[f"log{name.capitalize()}MinusAsymptotic"] = (
                    _log_fraction(value) - payload["asymptoticLogMoment"]
                )
    if not csv:
        return payload, None
    from .oracle import distribution_csv, exact_distribution

    if distribution is None:
        distribution = exact_distribution(n, shape, size_cap=params.get("sizeCap", DEFAULT_SIZE_CAP))
    return payload, distribution_csv(distribution)


def _sample_config(params: dict, worker_count: int) -> ExperimentConfig:
    shape = _shape(params["shape"])
    gate = params.get("gate", "none")
    if gate not in _GATES:
        raise UsageError(f"unknown gate {gate!r}; expected one of {', '.join(_GATES)}")
    try:
        return ExperimentConfig(
            n=params["n"],
            sample_count=params["samples"],
            shape=shape,
            seed=params["seed"],
            worker_count=worker_count,
        )
    except (ValueError, MeandricError) as exc:  # a number out of range, or a shape beyond n
        raise UsageError(str(exc)) from None


def _sample_output(params: dict, workers: int, csv: bool) -> tuple[dict, str | None]:
    """Summary payload, with the gate verdicts when a gate is set, plus
    the per-sample CSV text when ``csv`` is set.  The samples are drawn
    once for both."""
    cfg = _sample_config(params, workers)
    xs = samples_array(cfg)
    summary = summarize_samples(cfg, xs)
    payload = summary.to_json_dict()
    if params.get("gate", "none") != "none":
        payload["gates"] = evaluate_gates(summary, params["gate"]).to_json_dict()
    return payload, samples_csv(xs) if csv else None


# Each subcommand's builder takes the parameters, the worker count and
# whether to build the side file, and returns the payload and the side
# file's text (None without one); results do not depend on the worker
# count.  Beside it, the parameter that records the side file's digest.
_BUILDERS = {
    "shapes": (lambda params, workers, csv: (_shapes_payload(params), None), None),
    "constants": (lambda params, workers, csv: (constants_report(_shape(params["shape"])), None), None),
    "moments": (_moments_output, "distributionCsvSha256"),
    "sample": (_sample_output, "csvSha256"),
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _exact_digits():
    """Lift Python's limit on the digits of an int written as text, where
    it has one, until the block ends: an exact numerator can pass it."""
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def _run(sub: str, params: dict, args, workers: int) -> int:
    """Build a subcommand's payload, write its side file when asked and
    record the file's digest in ``params``, emit; a failed gate exits 2."""
    build, digest_key = _BUILDERS[sub]
    csv_path = getattr(args, "csv", None)
    with _exact_digits():
        payload, text = build(params, workers, bool(csv_path))
        if text is not None:
            _write_output(csv_path, text)
            params[digest_key] = hashlib.sha256(text.encode()).hexdigest()
        _emit(sub, params, payload, args.out)
    return EXIT_OK if payload.get("gates", {"pass": True})["pass"] else EXIT_GATE


def _cmd_shapes(args, config) -> int:
    if (args.half_length is None) == (args.parse is None):
        raise UsageError("shapes needs exactly one of --half-length or --parse")
    if args.parse is not None:
        params = {"parse": args.parse}
    else:
        params = {"halfLength": args.half_length, "maxHalfLength": args.max_half_length}
    return _run("shapes", params, args, 1)


def _cmd_constants(args, config) -> int:
    return _run("constants", {"shape": args.shape}, args, 1)


def _cmd_moments(args, config) -> int:
    params = {
        "n": args.n,
        "r": args.r,
        "shape": args.shape,
        "mode": args.mode,
        "sizeCap": args.size_cap,
    }
    return _run("moments", params, args, 1)


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
    return _run("sample", params, args, workers)


def _cmd_verify(args, config) -> int:
    if args.suite not in verify_mod.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; expected {' or '.join(verify_mod.SUITES)}")
    workers = _resolve_workers(args.workers, config)
    if args.out:
        # Refuse an unwritable path before the checks run and echo.
        _write_output(args.out, "")
    results = verify_mod.run_suite(args.suite, worker_count=workers)
    payload = {
        "suite": args.suite,
        "results": [{"check": name, "pass": ok, "detail": detail} for name, ok, detail in results],
        "pass": all(ok for _, ok, _ in results),
    }
    _emit("verify", {"suite": args.suite}, payload, args.out)
    return EXIT_OK if payload["pass"] else EXIT_GATE


def _cmd_replay(args, config) -> int:
    try:
        doc = json.loads(_read_input(args.manifest))
    except ValueError as exc:
        raise UsageError(f"{args.manifest} is not a JSON output: {exc}") from None
    manifest = doc.get("manifest", doc) if isinstance(doc, dict) else None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("parameters"), dict):
        raise UsageError(f"{args.manifest} holds no manifest with parameters")
    for key in ("subcommand", "payloadSha256"):
        if key not in manifest:
            raise UsageError(f"{args.manifest}: manifest has no {key!r}")
    sub = manifest["subcommand"]
    if sub not in _BUILDERS:
        raise UsageError(f"cannot replay subcommand {sub!r}")
    for key, value in manifest["parameters"].items():
        kind = _PARAM_TYPES.get(key)
        if kind is not None and type(value) is not kind:
            noun = "an integer" if kind is int else "a string"
            raise UsageError(
                f"{args.manifest}: {sub} parameter {key!r} must be {noun}, got {json.dumps(value)}"
            )
    params = manifest["parameters"]
    build, digest_key = _BUILDERS[sub]
    try:
        with _exact_digits():
            rebuilt, text = build(params, 1, digest_key in params)
    except KeyError as exc:
        raise UsageError(f"{args.manifest}: {sub} parameters have no {exc}") from None
    digest = hashlib.sha256(_canonical(rebuilt)).hexdigest()
    ok = digest == manifest["payloadSha256"]
    if text is not None:
        ok = ok and hashlib.sha256(text.encode()).hexdigest() == params[digest_key]
    payload = {
        "subcommand": sub,
        "expectedSha256": manifest["payloadSha256"],
        "recomputedSha256": digest,
        "match": ok,
    }
    _emit("replay", {"manifest": args.manifest}, payload, args.out)
    version = manifest.get("version")
    if not ok and version not in (None, __version__):
        print(
            f"replay: digests differ; {args.manifest} was made by meandric {version}, "
            f"this is meandric {__version__}",
            file=sys.stderr,
        )
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="meandric",
        description="Exact and Monte Carlo statistics of loop shapes in random meandric systems.",
        epilog=(
            "Config file: plain key=value lines (comments with #); the keys are "
            "workers and seed, each at most once.  Flags override the config file, "
            f"which overrides the {ENV_WORKERS} environment variable."
        ),
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapes", help="enumerate shapes of one half-length, or validate one")
    p.add_argument("--half-length", type=int, dest="half_length")
    p.add_argument("--parse", help="shape text to validate (supp=..;up=..;lo=..)")
    p.add_argument("--max-half-length", type=int, default=DEFAULT_SHAPE_CAP, dest="max_half_length")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("constants", help="placement constants and CLT parameters of a shape")
    p.add_argument("--shape", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("moments", help="factorial moments: exact, closed form, asymptotic")
    p.add_argument(
        "--mode", default="exact", help="comma list of exact,formula,asymptotic, each at most once"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP, dest="size_cap")
    p.add_argument(
        "--distribution-csv",
        dest="csv",
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
    p.add_argument("--gate", choices=_GATES, default="none")
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
    except CapExceededError as exc:
        flag = _CAP_FLAGS.get(exc.override)
        hint = f"; pass {flag} to override" if flag else ""
        print(f"refused: {exc.reason}{hint}", file=sys.stderr)
        return EXIT_USAGE
    except MeandricError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError as exc:
        print(f"refused: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
