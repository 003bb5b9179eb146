"""Command-line surface: estimate from data, generate samples, run grids, verify.

Exit codes: 0 success, 2 usage error, 3 data/domain error, 4 verification
failure, 5 budget refusal.  All floats are serialized with 17 significant
digits so CSV output round-trips losslessly.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import warnings
from datetime import datetime, timezone
from typing import ContextManager, Optional, Sequence, TextIO

from . import __version__
from .errors import BudgetExceededError, DomainError
from .estimator import EstimateReport, SampleAccumulator
from .model import LogNormalParams, params_from_gk, sample
from .montecarlo import (
    DEFAULT_CV_VALUES,
    DEFAULT_MASTER_SEED,
    DEFAULT_N_VALUES,
    DEFAULT_RUNS_CAP,
    GridConfig,
    SimulationCell,
    efficiency_curve,
    run_grid,
)
from .oracle import DEFAULT_MAX_N, DEFAULT_OMEGAS, run_verification

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5

# estimate reads its input in blocks of about this many characters.  Larger
# blocks save little time but raise peak RSS, because a block's lines, floats
# and arrays are alive at once.  Peak RSS of `lnvar estimate` on a 1e6-line
# file (x86-64, Python 3.11, numpy 2.4): 28.0 MB reading line by line,
# 28.8 MB with 16 KiB blocks, 29.5 MB with 64 KiB and 43.5 MB with 1 MiB.
_BLOCK_CHARS = 16 * 1024

# sample formats and writes this many values at a time, with one %-format of
# a repeated template per chunk.  `lnvar.cli.main` writing 1e6 values to a
# file (x86-64, Python 3.11, numpy 2.4): 0.75 s and 42 MB peak RSS at 2^12
# values, 0.64 s and 44 MB at 2^14, 0.86 s and 51 MB at 2^16; formatting all
# values into one string took 1.4 s and 145 MB.
_WRITE_CHUNK = 1 << 14

# Every float is written with 17 significant digits, enough for a lossless
# round trip.  "%" and format() share CPython's conversion for this spec.
_FLOAT_FORMAT = "%.17g"


class _UsageError(Exception):
    pass


def fsig(value: float) -> str:
    """17 significant digits: enough for a lossless float round trip."""
    return _FLOAT_FORMAT % float(value)


def _fields(record) -> dict[str, str]:
    """The fields of a dataclass record by name: ints as-is, floats through fsig."""
    return {
        f.name: str(v) if isinstance(v := getattr(record, f.name), int) else fsig(v)
        for f in dataclasses.fields(record)
    }


def _to_csv(cls: type, records: Sequence) -> str:
    """A header of cls's field names, then one line per record."""
    lines = [",".join(f.name for f in dataclasses.fields(cls))]
    lines.extend(",".join(_fields(r).values()) for r in records)
    return "\n".join(lines) + "\n"


def cells_to_csv(cells: Sequence[SimulationCell]) -> str:
    return _to_csv(SimulationCell, cells)


def _report_text(report: EstimateReport) -> str:
    fields = _fields(report)
    width = max(map(len, fields))
    return "".join(f"{name:<{width}}  {value}\n" for name, value in fields.items())


def _output(path: str) -> ContextManager[TextIO]:
    """stdout for "-", else the file at path, opened for ASCII text."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="ascii", newline="")


def _write_text(path: str, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _emit_manifest(output_path: str, command: str, config: dict, master_seed: Optional[int]) -> None:
    doc = {
        "command": command,
        "config": config,
        "master_seed": master_seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if output_path == "-":
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        with open(output_path + ".manifest.json", "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _accumulate_stream(stream: TextIO, source: str) -> SampleAccumulator:
    acc = SampleAccumulator()
    lineno = 0
    while lines := stream.readlines(_BLOCK_CHARS):
        if lineno == 0:
            # stdin arrives decoded, so a byte-order mark survives as U+FEFF
            lines[0] = lines[0].removeprefix("\ufeff")
        stripped = [raw.strip() for raw in lines]
        try:
            acc.extend(list(map(float, [s for s in stripped if s and s[0] != "#"])))
        except ValueError:  # from float, or a DomainError from extend
            _raise_first_bad_line(stripped, lineno, source)
            raise
        lineno += len(lines)
    return acc


def _raise_first_bad_line(stripped: list[str], offset: int, source: str) -> None:
    """Re-read a rejected block, whose first line follows line `offset`, value by
    value to name the line at fault."""
    probe = SampleAccumulator()
    for lineno, line in enumerate(stripped, start=offset + 1):
        if not line or line.startswith("#"):
            continue
        try:
            x = float(line)
        except ValueError:
            raise DomainError(f"{source}:{lineno}: not a number: {line!r}") from None
        try:
            probe.add(x)
        except DomainError as exc:
            raise DomainError(f"{source}:{lineno}: {exc}") from None


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise _UsageError(f"{flag} expects a comma-separated list of {noun}, got {text!r}") from None


def _cmd_estimate(args: argparse.Namespace) -> int:
    source = "<stdin>" if args.input == "-" else args.input
    try:
        if args.input == "-":
            if hasattr(sys.stdin, "reconfigure"):
                # a POSIX locale decodes stdin with surrogateescape
                sys.stdin.reconfigure(errors="strict")
            acc = _accumulate_stream(sys.stdin, source)
        else:
            with open(args.input, "r", encoding="utf-8-sig") as fh:
                acc = _accumulate_stream(fh, source)
    except UnicodeDecodeError:
        raise DomainError(f"{source}: not valid UTF-8") from None
    report = acc.report()
    text = _to_csv(EstimateReport, [report]) if args.format == "csv" else _report_text(report)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    have_musig = args.mu is not None or args.sigma2 is not None
    have_gk = args.g is not None or args.k is not None
    if have_musig == have_gk:
        raise _UsageError(
            "give exactly one parameterization: --mu with --sigma2, or --g with --k"
        )
    if have_musig:
        if args.mu is None or args.sigma2 is None:
            raise _UsageError("--mu and --sigma2 must be given together")
        params = LogNormalParams(args.mu, args.sigma2)
    else:
        if args.g is None or args.k is None:
            raise _UsageError("--g and --k must be given together")
        params = params_from_gk(args.g, args.k)
    # sample refuses draws beyond the float range before any output is opened
    values = sample(params, args.n, args.seed)
    line = _FLOAT_FORMAT + "\n"
    with _output(args.output) as fh:
        for start in range(0, values.size, _WRITE_CHUNK):
            chunk = values[start : start + _WRITE_CHUNK].tolist()
            fh.write((line * len(chunk)) % tuple(chunk))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = GridConfig(
        n_values=_parse_list(args.n, "--n", int),
        cv_values=_parse_list(args.cv, "--cv"),
        master_seed=args.seed,
        runs_override=args.runs,
        runs_cap=None if args.runs_cap == 0 else args.runs_cap,
        mu_y=args.mu_y,
    )
    cells = run_grid(cfg)
    _write_text(args.output, cells_to_csv(cells))
    config = dataclasses.asdict(cfg)
    master_seed = config.pop("master_seed")
    _emit_manifest(args.output, "simulate", config, master_seed)
    return EXIT_OK


def _cmd_efficiency(args: argparse.Namespace) -> int:
    if not args.min < args.max:
        raise _UsageError(f"--min must be below --max, got {args.min} >= {args.max}")
    if args.min <= 0:
        raise _UsageError(f"--min must be positive, got {args.min}")
    if args.points < 2:
        raise _UsageError(f"--points must be >= 2, got {args.points}")
    curve = efficiency_curve(args.min, args.max, args.points, args.spacing)
    lines = ["sigma2,efficiency"]
    lines.extend(f"{fsig(s2)},{fsig(eff)}" for s2, eff in curve)
    _write_text(args.output, "\n".join(lines) + "\n")
    _emit_manifest(
        args.output,
        "efficiency",
        {
            "sigma2_min": args.min,
            "sigma2_max": args.max,
            "points": args.points,
            "spacing": args.spacing,
        },
        None,
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(max_n=args.max_n, omegas=_parse_list(args.omega, "--omega"))
    for group in report.groups:
        status = "PASS" if group.passed else "FAIL"
        print(f"{group.label:<42} {group.checks:>4} checks  {status}")
    if not report.passed:
        print(f"first mismatch: {report.first_failure}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnvar",
        description=(
            "Estimate lognormal variability (squared coefficient of variation) "
            "from the ratio of arithmetic to harmonic sample means."
        ),
    )
    parser.add_argument("--version", action="version", version=f"lnvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "estimate",
        help="read one positive value per line and print the estimator report",
    )
    p.add_argument("input", nargs="?", default="-", help="data file, or - for stdin (default)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sample", help="write seeded lognormal variates, one per line")
    p.add_argument("--mu", type=float, help="log-space mean")
    p.add_argument("--sigma2", type=float, help="log-space variance")
    p.add_argument("--g", type=float, help="geometric mean")
    p.add_argument("--k", type=float, help="relative mean ratio (= squared cv)")
    p.add_argument("-n", type=int, required=True, help="number of variates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "simulate",
        help="run the Monte Carlo grid and write the plot-ready CSV plus manifest",
    )
    p.add_argument(
        "--n", default=",".join(map(str, DEFAULT_N_VALUES)), help="comma-separated sample sizes"
    )
    p.add_argument(
        "--cv", default=",".join(map(repr, DEFAULT_CV_VALUES)), help="comma-separated cv values"
    )
    p.add_argument("--runs", type=int, default=None, help="override runs for every cell")
    p.add_argument(
        "--runs-cap",
        type=int,
        default=DEFAULT_RUNS_CAP,
        help="cap the default floor(1e7/(n-1)) runs rule; 0 removes the cap",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed")
    p.add_argument("--mu-y", type=float, default=0.0, help="log-space mean of the population")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("efficiency", help="write the large-sample efficiency curve as CSV")
    p.add_argument("--min", type=float, default=0.01, help="smallest log-space variance")
    p.add_argument("--max", type=float, default=4.0, help="largest log-space variance")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser(
        "verify",
        help="cross-check the covariance enumeration oracle against the closed forms",
    )
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument(
        "--omega",
        default=",".join(f"{w:g}" for w in DEFAULT_OMEGAS),
        help="comma-separated mean-ratio values to check",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"error: the data are beyond float range for this report: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return EXIT_DATA


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI shows it: one line, without the source location."""
    return f"warning: {message}\n"


def entrypoint() -> None:
    warnings.formatwarning = _format_warning
    sys.exit(main())
