"""Command-line surface: estimate from data, generate samples, run grids, verify.

Exit codes: 0 success, 2 usage error, 3 data/domain error, 4 verification
failure, 5 budget refusal.  All floats are serialized with 17 significant
digits so CSV output round-trips losslessly.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import warnings
from datetime import datetime, timezone
from typing import ContextManager, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from .errors import SUPPORT_HIGH, SUPPORT_LOW, BudgetExceededError, DomainError, check_draw_budget
from .errors import check_int, check_support
from .estimator import EstimateReport, SampleAccumulator, two_product
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

# sample draws, checks and formats this many values at a time.  From 2^12 on, _format_lines's
# temporaries may outgrow glibc's heap trim threshold and fault in anew: 1e6 values to a file
# take 0.60/0.65/0.64 s CPU, 36.2/36.5/37.2 MB RSS, 5k/28k/37k faults at 2^11/12/13 (x86-64).
_WRITE_CHUNK = 1 << 11

# Every float is written with 17 significant digits, enough for a lossless
# round trip.  "%" and format() share CPython's conversion for this spec, and
# _format_lines is its vectorized twin, held to "%" by test_cli.py::TestFormatLines.
_FLOAT_FORMAT = "%.17g"

_POW10 = np.array([float(10**k) for k in range(21)])  # exact floats
_POW10_INT = _POW10[:18].astype(np.int64)


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


def _standard(name: str) -> TextIO:
    """sys.stdin, sys.stdout or sys.stderr by name; OSError when Python started without it."""
    stream = getattr(sys, name)
    if stream is None:
        noun = {"stdin": "input", "stdout": "output", "stderr": "error"}[name]
        raise OSError(f"standard {noun} is closed")
    return stream


def _print_error(line: str) -> None:
    """line on stderr; a missing or closed stderr loses the line, not the exit code."""
    with contextlib.suppress(OSError):
        _standard("stderr").write(line + "\n")


def _output(path: str) -> ContextManager[TextIO]:
    """stdout for "-" (OSError when it is closed), else the file at path, opened for ASCII text."""
    if path == "-":
        return contextlib.nullcontext(_standard("stdout"))
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
        _standard("stderr").write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        _write_text(output_path + ".manifest.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _accumulate_stream(stream: TextIO, source: str) -> SampleAccumulator:
    acc = SampleAccumulator()
    lineno = 0
    while lines := stream.readlines(_BLOCK_CHARS):
        if lineno == 0:
            # a byte-order mark is decoded as U+FEFF, from stdin and files alike
            lines[0] = lines[0].removeprefix("\ufeff")
        values = []
        try:
            for raw in lines:
                try:
                    x = float(raw)
                except ValueError:
                    # blank, a comment, or padded with what strip() removes and float() refuses
                    line = raw.strip()
                    if not line or line[0] == "#":
                        continue
                    try:
                        x = float(line)
                    except ValueError:
                        raise DomainError(f"not a number: {line!r}") from None
                if not SUPPORT_LOW < x <= SUPPORT_HIGH:
                    check_support(np.array([x]))
                values.append(x)
        except DomainError as exc:
            # an identical earlier line would have failed first, so index() finds this one
            raise DomainError(f"{source}:{lineno + lines.index(raw) + 1}: {exc}") from None
        acc.extend(values)
        lineno += len(lines)
    return acc


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
            stdin = _standard("stdin")
            if hasattr(stdin, "reconfigure"):
                # as a file is read, whatever the locale's encoding and error handler
                stdin.reconfigure(encoding="utf-8", errors="strict")
            acc = _accumulate_stream(stdin, source)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                acc = _accumulate_stream(fh, source)
    except UnicodeDecodeError:
        raise DomainError(f"{source}: not valid UTF-8") from None
    report = acc.report()
    text = _to_csv(EstimateReport, [report]) if args.format == "csv" else _report_text(report)
    _write_text("-", text)
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
    # a first pass only checks the draws, so that none is refused after the output opens
    for _ in _sample_blocks(params, args.n, args.seed):
        pass
    with _output(args.output) as fh:
        for block in _sample_blocks(params, args.n, args.seed):
            fh.write(_format_lines(block))
    return EXIT_OK


def _sample_blocks(params: LogNormalParams, n: int, seed: int) -> Iterator[np.ndarray]:
    """sample(params, n, seed) in blocks of _WRITE_CHUNK values, within the draw budget."""
    n = check_int(n, "n", 1)
    seed = check_int(seed, "seed", 0)
    check_draw_budget(n, f"sample of {n} values")
    rng = np.random.default_rng(seed)
    for start in range(0, n, _WRITE_CHUNK):
        yield sample(params, min(_WRITE_CHUNK, n - start), rng)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """quads[g + 10**4 * t] is the four ASCII digits of g < 10**4 as one uint32; t = 1
    blanks their leading zeros to NUL, t = 2 their trailing zeros.  first[10 * (16 - e) + t]
    is the fraction's first digit t after "." (e >= 0), or after the zeros after "0." (e < 0)."""
    g = np.arange(10**4)[:, None]
    digits = (g // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    lead, trail = g < [1000, 100, 10, 1], g % [10000, 1000, 100, 10] == 0
    quads = np.concatenate([digits, digits * ~lead, digits * ~trail]).view(np.uint32).ravel()
    heads = [("." if k <= 16 else "0" * (k - 17)) + str(t) for k in range(21) for t in range(10)]
    return quads, np.frombuffer("".join(h.rjust(4, "\0") for h in heads).encode(), np.uint32)


def _format_lines(x: np.ndarray) -> str:
    """The string "".join(_FLOAT_FORMAT % v + "\n" for v in x), built on arrays.

    %.17g writes x in fixed notation when e = floor(log10(x)) is in [-4, 16].
    There two_product gives hi + lo == x * 10**(16 - e) exactly, hi is an
    even integer, and d = hi + rint(lo) is the round-half-even 17-digit integer
    that "%" prints; its digits fill uint32 words of ASCII, NUL where a line has
    no character, and the NULs are deleted.  Other values, and those whose d
    is not 17 digits (log10 off by one, or a carry), are written by "%".
    """
    quads, first = _digit_tables()
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    fast = (e >= -4.0) & (e <= 16.0)
    k = np.where(fast, 16.0 - e, 0.0).astype(np.intp)
    y = np.where(fast, x, 1e16)
    hi, lo = two_product(y, _POW10[k])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= (d >= 10**16) & (d < 10**17)
    i = np.floor(y).astype(np.int64)  # d's integer part: 0 for e < 0
    f = (d - i * _POW10_INT[np.minimum(k, 17)]) * _POW10_INT[np.maximum(17 - k, 0)]
    n_int = int(e.max(where=fast, initial=0.0)) // 4 + 1
    out = np.full((x.size, n_int + 6), 10, np.uint32)  # "\n" stays in the last word
    for c in range(n_int - 1, -1, -1):
        q = i // 10**4
        out[:, c] = quads[i - q * 10**4 + 10**4 * (q == 0)]
        i = q
    out[:, n_int - 1] = np.where(k > 16, np.frombuffer(b"\0\x000.", np.uint32), out[:, n_int - 1])
    tail = np.ones(x.size, bool)  # no nonzero digit follows
    for c in range(n_int + 4, n_int, -1):
        q = f // 10**4
        g = f - q * 10**4
        out[:, c] = quads[g + 2 * 10**4 * tail]
        tail &= g == 0
        f = q
    out[:, n_int] = np.where(tail & (f == 0), 0, first[10 * k + f])
    slow = np.flatnonzero(~fast)
    rows = "".join((_FLOAT_FORMAT % v + "\n").ljust(4 * n_int + 24, "\0") for v in x[slow])
    out[slow] = np.frombuffer(rows.encode("ascii"), np.uint32).reshape(-1, n_int + 6)
    return out.tobytes().translate(None, b"\0").decode("ascii")


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
        # worded so that it holds for a nan too, which compares false both ways
        raise _UsageError(
            f"--min must be below --max, got --min {args.min} and --max {args.max}"
        )
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
    with _output("-") as out:
        for group in report.groups:
            status = "PASS" if group.passed else "FAIL"
            out.write(f"{group.label:<42} {group.checks:>4} checks  {status}\n")
    if not report.passed:
        _print_error(f"first mismatch: {report.first_failure}")
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
        code, message = EXIT_USAGE, f"usage error: {exc}"
    except BudgetExceededError as exc:
        code, message = EXIT_BUDGET, f"error: {exc}"
    except (DomainError, OSError) as exc:
        code, message = EXIT_DATA, f"error: {exc}"
    except ArithmeticError as exc:
        code, message = EXIT_DATA, f"error: the data are beyond float range for this report: {exc}"
    except MemoryError:
        code, message = EXIT_DATA, "error: not enough memory for this request"
    _print_error(message)
    return code


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI shows it: one line, without the source location."""
    return f"warning: {message}\n"


def entrypoint() -> None:
    warnings.formatwarning = _format_warning
    sys.exit(main())
