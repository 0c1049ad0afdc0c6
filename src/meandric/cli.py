"""Command line interface.

Subcommands expose the library: ``shapes`` (enumerate/validate), ``constants``
(placement constants and CLT parameters), ``moments`` (exact / closed-form /
asymptotic factorial moments), ``sample`` (Monte Carlo experiments with
optional statistical gates), ``verify`` (the acceptance checks), and
``replay`` (re-run a previous output's manifest and compare digests).
Each is declared once, in ``_COMMANDS``: its flags with the manifest key,
type and default of each, and its payload builder.  The parser, the
manifest parameters, replay's type check and the defaults a replayed
manifest may leave out all read that table.  So does ``_parse_plain``,
which turns the spelling the README uses (an optional leading ``--config
PATH``, the subcommand, ``--flag value`` pairs and replay's positional)
into the namespace argparse would return, without building a parser.  Any
other command line (help, ``--flag=value``, abbreviations, a bad or missing
value) goes to the argparse parser, which judges it and writes every help
page and usage error.

Every JSON output is wrapped as ``{"manifest": ..., "payload": ...}``; the
manifest records the subcommand, the fully resolved parameters, the engine
version, and the SHA-256 of the canonical payload encoding, which is enough
to reproduce the payload byte for byte.

Exit codes: 0 success, 2 statistical gate failure, 3 invariant violation,
4 usage error or refused input (shape text that is not a valid shape, a
shape too large for the size, a weak shape's closed form at r >= 2, an
asymptotic log moment beyond the float range, a size above a cap, an
array too large for memory).

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
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

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

EXIT_OK = 0
EXIT_GATE = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 4

ENV_WORKERS = "MEANDRIC_WORKERS"

_GATES = ("none", *GATE_PROFILES)

_MODES = ("exact", "formula", "asymptotic")


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
    if ("parse" in params) == ("halfLength" in params):
        raise UsageError("shapes needs exactly one of --half-length or --parse")
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
        if mode not in _MODES:
            raise UsageError(f"unknown mode {mode!r}")
        if mode in modes[:k]:
            raise UsageError(f"repeated mode {mode!r}")
    size_cap = params.get("sizeCap", _default("moments", "sizeCap"))
    constants = shape_constants(shape)
    payload: dict = {"n": n, "r": r, "shape": format_shape(shape), "strong": constants.is_strong}
    values: dict[str, Fraction] = {}
    distribution = None
    if "exact" in modes:
        report = moment_report(n, r, shape, size_cap=size_cap)
        distribution = report.distribution
        payload["exactMoment"] = fraction_json(report.exact_moment)
        payload["lowerBoundRFr"] = fraction_json(report.lower_bound)
        values["exact"] = report.exact_moment
    if "formula" in modes:
        formula = factorial_moment_strong(n, r, shape)
        payload["formulaMoment"] = fraction_json(formula)
        values["formula"] = formula
    if "asymptotic" in modes:
        try:
            payload["asymptoticLogMoment"] = log_factorial_moment_asymptotic(n, r, shape)
        except ValueError as exc:  # beyond the float range
            raise UsageError(str(exc)) from None
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
        distribution = exact_distribution(n, shape, size_cap=size_cap)
    return payload, distribution_csv(distribution)


def _sample_output(params: dict, workers: int, csv: bool) -> tuple[dict, str | None]:
    """Summary payload, with the gate verdicts when a gate is set, plus
    the per-sample CSV text when ``csv`` is set.  The samples are drawn
    once for both."""
    shape = _shape(params["shape"])
    gate = params.get("gate", _default("sample", "gate"))
    if gate not in _GATES:
        raise UsageError(f"unknown gate {gate!r}; expected one of {', '.join(_GATES)}")
    try:
        cfg = ExperimentConfig(
            n=params["n"],
            sample_count=params["samples"],
            shape=shape,
            seed=params["seed"],
            worker_count=workers,
        )
    except (ValueError, MeandricError) as exc:  # a number out of range, or a shape beyond n
        raise UsageError(str(exc)) from None
    xs = samples_array(cfg)
    summary = summarize_samples(cfg, xs)
    payload = summary.to_json_dict()
    if gate != "none":
        payload["gates"] = evaluate_gates(summary, gate).to_json_dict()
    return payload, samples_csv(xs) if csv else None


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


def _run(args, config) -> int:
    """Record a payload subcommand's arguments under their manifest keys,
    build its payload, write its side file when asked and record the
    file's digest, emit; a failed gate exits 2.  An unset flag is not
    recorded, except the seed, which comes from the config file, else 0;
    a shape to validate records no half-length cap."""
    command = _COMMANDS[args.command]
    workers = _resolve_workers(args.workers, config) if "workers" in args else 1
    params = {}
    for param in command.params:
        value = getattr(args, param.flag.lstrip("-").replace("-", "_"))
        if param.key == "seed" and value is None:
            value = _as_int(config.get("seed", "0"), "config seed")
        if param.key and value is not None:
            params[param.key] = value
    if "parse" in params:
        del params["maxHalfLength"]
    csv_path = getattr(args, "csv", None)
    with _exact_digits():
        payload, text = command.build(params, workers, bool(csv_path))
        if text is not None:
            _write_output(csv_path, text)
            params[command.side_file.key] = hashlib.sha256(text.encode()).hexdigest()
        _emit(args.command, params, payload, args.out)
    return EXIT_OK if payload.get("gates", {"pass": True})["pass"] else EXIT_GATE


def _cmd_verify(args, config) -> int:
    from . import verify as verify_mod

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
    expected = manifest["payloadSha256"]
    if not (isinstance(expected, str) and re.fullmatch("[0-9a-f]{64}", expected)):
        raise UsageError(
            f"{args.manifest}: payloadSha256 must be 64 lowercase hex digits, got {json.dumps(expected)}"
        )
    sub = manifest["subcommand"]
    command = _COMMANDS.get(sub) if isinstance(sub, str) else None
    if command is None or command.build is None:
        raise UsageError(f"cannot replay subcommand {sub!r}")
    # Each parameter, and a side file's digest, must have its flag's type;
    # the digest is then compared.
    types = {param.key: param.type for param in (*command.params, command.side_file) if param}
    for key, value in manifest["parameters"].items():
        kind = types.get(key)
        if kind is not None and type(value) is not kind:
            noun = "an integer" if kind is int else "a string"
            raise UsageError(
                f"{args.manifest}: {sub} parameter {key!r} must be {noun}, got {json.dumps(value)}"
            )
    params = manifest["parameters"]
    side = command.side_file
    try:
        with _exact_digits():
            rebuilt, text = command.build(params, 1, side is not None and side.key in params)
    except KeyError as exc:
        raise UsageError(f"{args.manifest}: {sub} parameters have no {exc}") from None
    digest = hashlib.sha256(_canonical(rebuilt)).hexdigest()
    ok = digest == expected
    if text is not None:
        ok = ok and hashlib.sha256(text.encode()).hexdigest() == params[side.key]
    payload = {
        "subcommand": sub,
        "expectedSha256": expected,
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


_REQUIRED = object()  # the default of a flag that must be given


class _Param(NamedTuple):
    """One argument of a subcommand: the manifest key that records it
    (None for one the manifest leaves out), its flag, the type it parses
    to (which replay checks too), its default and its help."""

    key: str | None
    flag: str
    type: type = str
    default: object = None
    help: str | None = None


class _Command(NamedTuple):
    """One subcommand: its help, its arguments, and either the function that
    runs it or, for ``_run`` and replay, its payload builder and side file,
    whose key records the file's digest.  A builder takes the parameters,
    the worker count and whether to build the side file, and returns the
    payload and the side file's text (None without one); results do not
    depend on the worker count."""

    help: str
    params: tuple[_Param, ...]
    run: Callable | None = None
    build: Callable | None = None
    side_file: _Param | None = None


_COMMANDS = {
    "shapes": _Command(
        "enumerate shapes of one half-length, or validate one",
        (
            _Param("halfLength", "--half-length", int),
            _Param("parse", "--parse", help="shape text to validate (supp=..;up=..;lo=..)"),
            _Param("maxHalfLength", "--max-half-length", int, DEFAULT_SHAPE_CAP),
        ),
        build=lambda params, workers, csv: (_shapes_payload(params), None),
    ),
    "constants": _Command(
        "placement constants and CLT parameters of a shape",
        (_Param("shape", "--shape", default=_REQUIRED),),
        build=lambda params, workers, csv: (constants_report(_shape(params["shape"])), None),
    ),
    "moments": _Command(
        "factorial moments: exact, closed form, asymptotic",
        (
            _Param("mode", "--mode", default="exact",
                   help=f"comma list of {','.join(_MODES)}, each at most once"),
            _Param("n", "--n", int, _REQUIRED),
            _Param("r", "--r", int, _REQUIRED),
            _Param("shape", "--shape", default=_REQUIRED),
            _Param("sizeCap", "--size-cap", int, DEFAULT_SIZE_CAP),
        ),
        build=_moments_output,
        side_file=_Param("distributionCsvSha256", "--distribution-csv",
                         help="also write the exact count distribution as (x, count) rows"),
    ),
    "sample": _Command(
        "Monte Carlo shape-count experiment",
        (
            _Param("n", "--n", int, _REQUIRED),
            _Param("samples", "--samples", int, _REQUIRED),
            _Param("shape", "--shape", default=_REQUIRED),
            _Param("seed", "--seed", int),
            _Param(None, "--workers", int),
            _Param("gate", "--gate", default="none", help=f"one of {', '.join(_GATES)}"),
        ),
        build=_sample_output,
        side_file=_Param("csvSha256", "--csv", help="write per-sample (position, count) rows here"),
    ),
    "verify": _Command(
        "run the acceptance checks",
        (_Param("suite", "--suite", default="small"), _Param(None, "--workers", int)),
        run=_cmd_verify,
    ),
    "replay": _Command(
        "recompute a previous output and compare digests",
        (_Param("manifest", "manifest", help="path to a previous JSON output (or bare manifest)"),),
        run=_cmd_replay,
    ),
}


def _default(subcommand: str, key: str):
    """The default ``_COMMANDS`` declares for one manifest key, which a
    builder reads where a replayed manifest leaves the key out."""
    return next(param.default for param in _COMMANDS[subcommand].params if param.key == key)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _arguments(command: _Command):
    """``(dest, param)`` for each argument of a subcommand's parser: its
    parameters, its side file's flag (stored as ``csv``) and ``--out``."""
    for param in command.params:
        yield param.flag.lstrip("-").replace("-", "_"), param
    if command.side_file is not None:
        yield "csv", command.side_file
    yield "out", _Param(None, "--out")


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
    # prog is given so that argparse does not format the root usage to find it.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest, param in _arguments(command):
            kwargs = {"required": True} if param.default is _REQUIRED else {"default": param.default}
            if param.flag.startswith("-"):
                kwargs["dest"] = dest
            p.add_argument(param.flag, type=param.type, help=param.help, **kwargs)
        p.set_defaults(func=command.run or _run)
    return parser


def _parse_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read straight from
    ``_COMMANDS``, for the spelling the README uses: an optional leading
    ``--config PATH``, a subcommand, then ``--flag value`` pairs of flags
    it declares and replay's one positional, each at most once.  Any other
    argv gives None and is left to argparse: help, ``--flag=value``,
    abbreviations, ``--``, a value that starts with ``-``, an unknown,
    missing or repeated flag, or an int flag's value that ``int()``
    refuses."""
    args = list(argv)
    config = None
    if len(args) > 1 and args[0] == "--config":
        config, args = args[1], args[2:]
    command = _COMMANDS.get(args[0]) if args else None
    if command is None or (config or "").startswith("-"):
        return None
    declared = {param.flag: (dest, param) for dest, param in _arguments(command)}
    values = {dest: param.default for dest, param in declared.values()}
    values.update(config=config, command=args[0], func=command.run or _run)
    tokens = iter(args[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, value = token, next(tokens, None)
        else:  # the positional, if it is still unset
            flag, value = next((f for f in declared if not f.startswith("-")), None), token
        if flag not in declared or value is None or value.startswith("-"):
            return None
        dest, param = declared.pop(flag)
        if param.type is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[dest] = value
    if any(param.default is _REQUIRED or not flag.startswith("-") for flag, (_, param) in declared.items()):
        return None  # a required flag or the positional is missing
    return argparse.Namespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_plain(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        config = _read_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WeakShapeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        hint = f"; pass --{exc.override.replace('_', '-')} to override" if exc.override else ""
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
