"""lnvar benchmark: the real CLI in fresh child processes, plus a traced run.

    python3 bench/run.py --workload {grid,ingest,emit} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports lnvar from ./src only.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An earlier line holds the
environment record; the full record (environment, metrics and every child
sample) and, with --trace 1, the span list go under .bench_work/.

--trace 0 is a closed loop with one client: the workload's command runs in
a fresh interpreter, one child at a time, until --seconds have passed (at
least MIN_CHILDREN times).  Each child's wall time, CPU time and peak RSS
come from its own os.wait4 record, and its output is checked before the
next child starts.  Medians are reported.

--trace 1 imports lnvar in this process and times calls into each layer
(model, estimator, oracle, montecarlo, cli) with spans recorded here, not
inside the package.  Every traced sweep covers all three command paths, so
every per-layer metric is reported whichever workload is named; the
workload picks the path whose traced time is compared against an untraced
call of the same path for trace.overhead_frac.  README.md in this directory
says which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

# BLAS/OpenMP pools are pinned to one thread for the children and for the
# traced run alike; this must happen before numpy is imported.
THREAD_VARS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)
os.environ.pop("LNVAR_MAX_DRAWS", None)

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_CHILDREN = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120.0

# The default simulate grid, as documented in the README.
GRID_HEADER = "n,cv,runs,seed,mean_khat,sd_khat,pred_mean,pred_sd,se_mean"
GRID_N = (2, 10, 100)
GRID_CV = (0.1, 0.5, 1.0)
GRID_RUNS_CAP = 10**6
GRID_RUNS_NUMERATOR = 10**7

# ingest: wide lognormal values (sigma2_y = 4) with about 1% skipped lines.
INGEST_VALUES = 1_000_000
INGEST_SIGMA_Y = 2.0
INGEST_SKIPPED = INGEST_VALUES // 100
INGEST_REL_TOL = 1e-12

EMIT_N = 1_000_000
EMIT_K = 0.5
EMIT_SDS = 5.0

IMPORT_SPLIT = (
    "import json, time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import lnvar; t2 = time.perf_counter(); "
    "print(json.dumps([t1 - t0, t2 - t1]))"
)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------- inputs


class Ingest(NamedTuple):
    path: Path
    values: np.ndarray
    lines: int
    skipped: int
    sha256: str
    a_n: float
    h_n: float
    k_hat: float


def make_ingest(seed: int, path: Path) -> Ingest:
    """Write the ingest input with numpy directly, never through lnvar.model."""
    rng = np.random.default_rng(seed)
    values = np.exp(rng.normal(0.0, INGEST_SIGMA_Y, size=INGEST_VALUES))
    lines = INGEST_VALUES + INGEST_SKIPPED
    skip = np.zeros(lines, dtype=bool)
    skip[rng.choice(lines, size=INGEST_SKIPPED, replace=False)] = True
    fillers = ("# instrument note", "", "   ")
    it = iter(values.tolist())
    text = "".join(
        (fillers[i % 3] if s else repr(next(it))) + "\n"
        for i, s in enumerate(skip.tolist())
    )
    data = text.encode("ascii")
    path.write_bytes(data)
    n = INGEST_VALUES
    a_n = math.fsum(values.tolist()) / n
    h_n = n / math.fsum((1.0 / values).tolist())
    return Ingest(
        path=path,
        values=values,
        lines=lines,
        skipped=INGEST_SKIPPED,
        sha256=hashlib.sha256(data).hexdigest(),
        a_n=a_n,
        h_n=h_n,
        k_hat=n / (n - 1.0) * (a_n / h_n - 1.0),
    )


# ---------------------------------------------------------------- output checks


def check_grid(text: str) -> int:
    """Acceptance gate C3 on the default grid; returns the draws made."""
    lines = text.splitlines()
    if not lines or lines[0] != GRID_HEADER:
        raise CheckFailed(f"grid: header {lines[:1]!r}")
    rows = [dict(zip(GRID_HEADER.split(","), line.split(","))) for line in lines[1:]]
    want = {(n, cv) for n in GRID_N for cv in GRID_CV}
    got = {(int(r["n"]), float(r["cv"])) for r in rows}
    if len(rows) != len(want) or got != want:
        raise CheckFailed(f"grid: cells {sorted(got)}")
    draws = 0
    for r in rows:
        n, cv, runs = int(r["n"]), float(r["cv"]), int(r["runs"])
        if runs != min(GRID_RUNS_CAP, GRID_RUNS_NUMERATOR // (n - 1)):
            raise CheckFailed(f"grid: n={n} has {runs} runs")
        mean, se = float(r["mean_khat"]), float(r["se_mean"])
        if not abs(mean - cv * cv) <= 4.0 * se:
            raise CheckFailed(f"grid: n={n} cv={cv} mean_khat {mean} vs {cv * cv} (se {se})")
        draws += n * runs
    return draws


def _near(got: float, want: float) -> bool:
    return abs(got - want) <= INGEST_REL_TOL * abs(want)


def check_report(n: int, a_n: float, h_n: float, k_hat: float, ingest: Ingest) -> int:
    """The estimator's readings against math.fsum over the generated values."""
    if n != INGEST_VALUES:
        raise CheckFailed(f"ingest: read {n} values, wrote {INGEST_VALUES}")
    for name, got, want in (
        ("a_n", a_n, ingest.a_n),
        ("h_n", h_n, ingest.h_n),
        ("k_hat", k_hat, ingest.k_hat),
    ):
        if not _near(got, want):
            raise CheckFailed(f"ingest: {name} {got!r}, fsum gives {want!r}")
    return n


def check_ingest(text: str, ingest: Ingest) -> int:
    try:
        fields = dict(line.split(None, 1) for line in text.splitlines() if line.strip())
        return check_report(
            int(fields["n"]),
            float(fields["a_n"]),
            float(fields["h_n"]),
            float(fields["k_hat"]),
            ingest,
        )
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"ingest: unreadable report ({exc!r})") from None


def sd_k_hat(n: int, k: float) -> float:
    """The paper's variance law for the bias-corrected ratio."""
    return math.sqrt(2.0 / (n - 1) * k * k * (1.0 + k + k * k / (2.0 * n)))


def check_emit(text: str) -> int:
    """n lines of positive finite floats at 17 significant digits, k_hat near k."""
    tokens = text.split("\n")
    if tokens[-1] != "" or len(tokens) - 1 != EMIT_N:
        raise CheckFailed(f"emit: {len(tokens) - 1} lines, want {EMIT_N}")
    tokens.pop()
    try:
        values = list(map(float, tokens))
    except ValueError as exc:
        raise CheckFailed(f"emit: {exc}") from None
    if tokens != [format(v, ".17g") for v in values]:
        raise CheckFailed("emit: a value is not written at 17 significant digits")
    arr = np.array(values)
    if not (np.isfinite(arr).all() and (arr > 0.0).all()):
        raise CheckFailed("emit: a value is not positive and finite")
    n = EMIT_N
    ratio = math.fsum(values) * math.fsum((1.0 / arr).tolist()) / (n * n)
    k_hat = n / (n - 1.0) * (ratio - 1.0)
    if not abs(k_hat - EMIT_K) <= EMIT_SDS * sd_k_hat(n, EMIT_K):
        raise CheckFailed(f"emit: k_hat {k_hat} is over {EMIT_SDS} sd from {EMIT_K}")
    return n


# ---------------------------------------------------------------- workloads


class Workload(NamedTuple):
    argv: Callable[[int, Path, Ingest | None], list[str]]
    output: str  # file name of the checked output in the run directory
    check: Callable[[str, Ingest | None], int]


WORKLOADS = {
    "grid": Workload(
        argv=lambda seed, out, _: ["simulate", "-o", str(out), "--seed", str(seed)],
        output="grid.csv",
        check=lambda text, _: check_grid(text),
    ),
    "ingest": Workload(
        argv=lambda seed, out, ingest: ["estimate", str(ingest.path)],
        output="child.out",
        check=check_ingest,
    ),
    "emit": Workload(
        argv=lambda seed, out, _: [
            "sample", "--g", "1", "--k", str(EMIT_K), "-n", str(EMIT_N),
            "--seed", str(seed), "-o", str(out),
        ],
        output="sample.txt",
        check=lambda text, _: check_emit(text),
    ),
}


# ---------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        **THREAD_VARS,
    }


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


class Children:
    """Runs python children one at a time, through launcher.py in this directory."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, args: list[str]) -> tuple[Child, str]:
        """Run python with args; returns its usage and its standard output."""
        out, err = self.run_dir / "child.out", self.run_dir / "child.err"
        job = {
            "argv": [sys.executable, *args],
            "env": child_env(),
            "cwd": str(ROOT),
            "stdout": str(out),
            "stderr": str(err),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("error: the child launcher stopped")
        child = Child(**json.loads(reply))
        if child.code != 0:
            sys.stderr.write(err.read_text(errors="replace"))
        return child, out.read_text(errors="replace")


def import_lnvar_child(children: Children) -> float:
    """Wall time of a fresh interpreter that imports lnvar."""
    child, _ = children.run(["-c", "import lnvar"])
    if child.code != 0:
        raise SystemExit("error: a fresh interpreter cannot import lnvar from src")
    return child.wall_s


def measure(
    name: str, seed: int, seconds: float, children: Children, ingest: Ingest | None
) -> dict:
    work = WORKLOADS[name]
    run_dir = children.run_dir
    out = run_dir / work.output
    argv = ["-m", "lnvar", *work.argv(seed, out, ingest)]
    import_lnvar_child(children)  # fills the bytecode cache before anything is timed
    samples, setup_walls = [], []
    # A child's output that equals one that already passed the checks needs
    # no second pass; the full check of a 1e6-line file costs as much as
    # the child, and would halve the children measured in a run.
    passed: dict[str, int] = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    cycle = 0.0  # the last cycle's length; no cycle starts that would overrun
    while attempted < MIN_CHILDREN or time.perf_counter() + cycle < deadline:
        started = time.perf_counter()
        for stale in run_dir.glob(work.output + "*"):
            stale.unlink()
        child, _ = children.run(argv)
        attempted += 1
        items, error = 0, None
        if child.code != 0:
            error = f"exit code {child.code}"
        else:
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            try:
                items = passed.get(digest) or work.check(data.decode(errors="replace"), ingest)
                passed[digest] = items
            except CheckFailed as exc:
                error = str(exc)
        if error is not None:
            failed += 1
            print(f"failed: {error}", file=sys.stderr)
        samples.append({**child._asdict(), "items": items, "error": error})
        # set-up is sampled across the whole run, not in one burst at its start
        setup_walls.append(import_lnvar_child(children))
        cycle = time.perf_counter() - started
    good = [s for s in samples if s["error"] is None] or samples
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in good), "s"),
        "items_per_s": (statistics.median(s["items"] / s["wall_s"] for s in good), "1/s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in good), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in good), "MB"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "setup_samples": setup_walls,
    }


# ---------------------------------------------------------------- traced run


def import_split(children: Children) -> tuple[float, float]:
    """Median fresh-interpreter cost of import numpy, then of import lnvar on top."""
    import_lnvar_child(children)
    splits = []
    for _ in range(IMPORT_REPEATS):
        child, stdout = children.run(["-c", IMPORT_SPLIT])
        if child.code != 0:
            raise SystemExit("error: a fresh interpreter cannot import lnvar from src")
        splits.append(json.loads(stdout))
    return (
        statistics.median(s[0] for s in splits),
        statistics.median(s[1] for s in splits),
    )


def import_lnvar():
    sys.path.insert(0, str(SRC))
    import lnvar
    from lnvar import cli, estimator, montecarlo, oracle

    if Path(lnvar.__file__).resolve().parent != SRC / "lnvar":
        raise SystemExit(f"error: imported lnvar from {lnvar.__file__}, not from {SRC}")
    return cli, estimator, montecarlo, oracle


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if ".ns_per_" in metric:
        return "ns"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def check_verification(report) -> None:
    if not report.passed:
        raise CheckFailed(f"verify: {report.first_failure}")


def traced(name: str, seed: int, seconds: float, children: Children, ingest: Ingest) -> dict:
    numpy_s, lnvar_s = import_split(children)
    cli, estimator, montecarlo, oracle = import_lnvar()
    run_dir = children.run_dir
    csv, sample_out = run_dir / "grid.csv", run_dir / "sample.txt"
    outputs = (csv, Path(str(csv) + ".manifest.json"), sample_out)
    simulate_argv = WORKLOADS["grid"].argv(seed, csv, None)
    estimate_argv = WORKLOADS["ingest"].argv(seed, csv, ingest)
    sample_argv = WORKLOADS["emit"].argv(seed, sample_out, None)
    values = ingest.values.tolist()

    def call_cli(argv: list[str]) -> str:
        """cli.main with stdout captured; a failed exit shows in the output checks."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        return buf.getvalue()

    paths = {
        "grid": ("cli.simulate", simulate_argv),
        "ingest": ("cli.estimate", estimate_argv),
        "emit": ("cli.sample", sample_argv),
    }
    path_span, path_argv = paths[name]

    def sweep(tracer: spans.Tracer, counts: dict, errors: list) -> None:
        """Every layer once; each output is checked as in the untraced run."""
        orig_cell = montecarlo.run_cell

        def run_cell(n, cv, runs, *args, **kwargs):
            with tracer.span(f"montecarlo.run_cell.n{n}"):
                cell = orig_cell(n, cv, runs, *args, **kwargs)
            counts[f"draws.n{n}"] = counts.get(f"draws.n{n}", 0) + n * runs
            counts["runs"] = counts.get("runs", 0) + runs
            return cell

        def check(fn, *args) -> None:
            counts["checks_attempted"] = counts.get("checks_attempted", 0) + 1
            try:
                fn(*args)
            except (CheckFailed, OSError) as exc:
                errors.append(str(exc))

        with contextlib.ExitStack() as stack:
            for module, attr, fn in (
                (cli, "run_grid", tracer.wrap("montecarlo.run_grid", montecarlo.run_grid)),
                (cli, "cells_to_csv", tracer.wrap("cli.cells_to_csv", cli.cells_to_csv)),
                (cli, "sample", tracer.wrap("model.sample", cli.sample)),
                (montecarlo, "run_cell", run_cell),
            ):
                stack.enter_context(mock.patch.object(module, attr, fn))
            with tracer.span("cli.simulate"):
                written = len(call_cli(simulate_argv))
            check(lambda: check_grid(csv.read_text()))

            with tracer.span("oracle.run_verification"):
                verification = oracle.run_verification()
            check(check_verification, verification)
            counts["oracle_checks"] = sum(g.checks for g in verification.groups)

            with tracer.span("estimator.from_values"):
                acc = estimator.SampleAccumulator.from_values(values)
            with tracer.span("estimator.report"):
                r = acc.report()
            check(check_report, r.n, r.a_n, r.h_n, r.k_hat, ingest)

            with tracer.span("cli.estimate"):
                text = call_cli(estimate_argv)
            check(check_ingest, text, ingest)
            written += len(text)

            with tracer.span("cli.sample"):
                call_cli(sample_argv)
            check(lambda: check_emit(sample_out.read_text()))
        counts["bytes_written"] = written + sum(p.stat().st_size for p in outputs if p.exists())

    def time_untraced() -> float:
        t0 = time.perf_counter()
        call_cli(path_argv)
        return time.perf_counter() - t0

    rows, tracers, errors = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    cycle = 0.0
    while not rows or time.perf_counter() + cycle < deadline:
        started = time.perf_counter()
        tracer, counts = spans.Tracer(), {}
        # alternate which side runs first, so drift does not favour one
        if len(rows) % 2:
            untraced_s = time_untraced()
            sweep(tracer, counts, errors)
        else:
            sweep(tracer, counts, errors)
            untraced_s = time_untraced()
        for out in outputs:
            out.unlink(missing_ok=True)
        attempted += counts["checks_attempted"]
        cycle = time.perf_counter() - started
        tracers.append(tracer)
        d = spans.totals(tracer.spans)
        own = spans.totals(tracer.spans, use_self=True)
        row = {
            "montecarlo.run_grid_s": d["montecarlo.run_grid"],
            "montecarlo.draws": sum(counts[f"draws.n{n}"] for n in GRID_N),
            "montecarlo.runs": counts["runs"],
        }
        for n in GRID_N:
            cell_s = d[f"montecarlo.run_cell.n{n}"]
            row[f"montecarlo.run_cell_s.n{n}"] = cell_s
            row[f"montecarlo.ns_per_draw.n{n}"] = cell_s / counts[f"draws.n{n}"] * 1e9
        row.update({
            "estimator.from_values_s": d["estimator.from_values"],
            "estimator.ns_per_value": d["estimator.from_values"] / INGEST_VALUES * 1e9,
            "estimator.report_s": d["estimator.report"],
            "estimator.values": INGEST_VALUES,
            "cli.estimate_s": d["cli.estimate"],
            "cli.estimate_self_s": (
                d["cli.estimate"] - d["estimator.from_values"] - d["estimator.report"]
            ),
            "cli.sample_s": d["cli.sample"],
            "cli.sample_self_s": own["cli.sample"],
            "cli.cells_to_csv_s": d["cli.cells_to_csv"],
            "cli.lines_read": ingest.lines,
            "cli.lines_skipped": ingest.skipped,
            "cli.bytes_written": counts["bytes_written"],
            "model.sample_s": d["model.sample"],
            "model.ns_per_value": d["model.sample"] / EMIT_N * 1e9,
            "oracle.run_verification_s": d["oracle.run_verification"],
            "oracle.checks": counts["oracle_checks"],
            "trace.overhead_frac": d[path_span] / untraced_s - 1.0,
        })
        rows.append(row)
    spans.write(str(WORK / f"trace-{name}-seed{seed}.jsonl"), tracers)
    for error in errors:
        print(f"failed: {error}", file=sys.stderr)
    metrics = {
        key: (statistics.median(r[key] for r in rows), unit_of(key)) for key in rows[0]
    }
    metrics["import.numpy_s"] = (numpy_s, "s")
    metrics["import.lnvar_s"] = (lnvar_s, "s")
    return {
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
        "samples": rows,
        "errors": errors,
    }


# ---------------------------------------------------------------- environment


def git_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return res.stdout.strip() or None


def simd_flags() -> list[str]:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            flags = next((line.split(":", 1)[1].split() for line in fh if line.startswith("flags")), [])
    except OSError:
        return []
    prefixes = ("sse", "ssse", "avx", "fma", "f16c", "amx", "neon", "asimd", "sve")
    return sorted(f for f in flags if f.startswith(prefixes))


def environment(seed: int, ingest: Ingest | None) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "simd": simd_flags(),
        "git": git_hash(),
        "seed": seed,
        "ingest_sha256": ingest.sha256 if ingest else None,
    }


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "lnvar" / "__init__.py").is_file():
        print(f"error: no lnvar sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        with Children(run_dir) as children:
            ingest = None
            if args.trace or args.workload == "ingest":
                ingest = make_ingest(args.seed, run_dir / "ingest.txt")
            run = traced if args.trace else measure
            result = run(args.workload, args.seed, args.seconds, children, ingest)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment(args.seed, ingest)
    record = {"workload": args.workload, "trace": args.trace, "environment": env, **result}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
