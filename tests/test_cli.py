import ast
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import lnvar
from lnvar.cli import (
    EXIT_BUDGET,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _BLOCK_CHARS,
    _WRITE_CHUNK,
    _format_lines,
    cells_to_csv,
    fsig,
    main,
)
from lnvar.estimator import sd_k_hat
from lnvar.model import params_from_gk, sample
from lnvar.montecarlo import DEFAULT_CV_VALUES, DEFAULT_MASTER_SEED, DEFAULT_N_VALUES
from lnvar.montecarlo import DEFAULT_RUNS_CAP, run_grid

from _properties import rel_diff


class Refusing(io.TextIOBase):
    """A stream whose descriptor refuses writes, as Python's stderr is under `2>&-`."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_text_report(out):
    fields = {}
    for line in out.strip().splitlines():
        name, value = line.split()
        fields[name] = float(value)
    return fields


class TestEstimate:
    def test_pair_file(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1\n4\n")
        code, out, _ = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_OK
        fields = parse_text_report(out)
        assert fields["k_hat"] == 1.125
        assert fields["g_hat"] == 2.0
        assert fields["a_n"] == 2.5
        assert fields["h_n"] == 1.6

    def test_constant_file(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("2\n2\n2\n")
        code, out, _ = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_OK
        fields = parse_text_report(out)
        assert fields["k_hat"] == 0.0
        assert fields["g_hat"] == 2.0

    def test_csv_format_round_trips(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1\n2\n4\n")
        code, out, _ = run_main(["estimate", str(data), "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert rel_diff(float(values["k_hat"]), 13.0 / 24.0) <= 1e-14
        assert int(values["cost_conventional"]) == 3
        assert int(values["cost_collective"]) == 2

    def test_comments_and_blanks_skipped(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("# header comment\n1\n\n4\n# trailing\n")
        code, out, _ = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_OK
        assert parse_text_report(out)["n"] == 2

    def test_negative_value_names_line(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1\n-4\n")
        code, _, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert ":2:" in err

    def test_non_numeric_names_line(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1\n2\nbanana\n")
        code, _, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert ":3:" in err

    def test_rejected_block_names_the_first_fault_past_a_comment_and_a_blank(
        self, tmp_path, capsys
    ):
        data = tmp_path / "data.txt"
        data.write_text("1.5\n# c\n\n-4\nbanana\n")
        code, out, err = run_main(["estimate", str(data)], capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"error: {data}:4: lognormal support is positive reals, got -4.0\n"

    def test_single_value_too_small(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("5\n")
        code, _, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert "at least 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_main(["estimate", "/nonexistent/file.txt"], capsys)
        assert code == EXIT_DATA

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n4\n"))
        code, out, _ = run_main(["estimate"], capsys)
        assert code == EXIT_OK
        assert parse_text_report(out)["k_hat"] == 1.125

    def test_overflowing_reciprocal_names_line(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("5e-324\n1e-323\n")
        code, _, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert ":1:" in err and "reciprocal overflows" in err

    def test_bad_line_after_an_overflowing_sum_is_named(self, tmp_path, capsys):
        # the sum of the first two lines overflows before line 3 is reached
        data = tmp_path / "data.txt"
        data.write_text("1e308\n1e308\n-1\n")
        code, _, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert ":3:" in err and "positive reals" in err

    def test_byte_order_mark_ignored(self, tmp_path, capsys, monkeypatch):
        text = "# values\n1\n2\n4\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        reference = run_main(["estimate", str(plain)], capsys)
        assert reference[0] == EXIT_OK
        assert run_main(["estimate", str(marked)], capsys) == reference
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
        assert run_main(["estimate"], capsys) == reference
        for encoding in ("utf-8", "latin-1"):  # stdin is read as UTF-8 whatever the locale's encoding
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(marked.read_bytes()), encoding))
            assert run_main(["estimate"], capsys) == reference
        # only one mark is removed, from a file as from stdin
        doubled = tmp_path / "doubled.txt"
        doubled.write_text("\ufeff" + text, encoding="utf-8-sig")
        code, _, err = run_main(["estimate", str(doubled)], capsys)
        assert (code, err) == (EXIT_DATA, f"error: {doubled}:1: not a number: '\\ufeff# values'\n")

    @pytest.mark.parametrize(
        "spelled, plain",
        [("\x1c1.5\x1f", "1.5"), ("\x1f\x1c 4\t\x1c", "4"), ("1_0", "10"), ("\u30002.5\u3000", "2.5")],
        ids=["separators", "separators-and-whitespace", "underscore", "ideographic-space"],
    )
    def test_a_value_reads_as_float_reads_it(self, tmp_path, capsys, spelled, plain):
        # float() refuses the separators "\x1c" to "\x1f", which strip() removes
        spelled_data, plain_data = tmp_path / "spelled.txt", tmp_path / "plain.txt"
        spelled_data.write_text(f"3\n{spelled}\n", encoding="utf-8")
        plain_data.write_text(f"3\n{plain}\n", encoding="utf-8")
        reference = run_main(["estimate", str(plain_data)], capsys)
        assert reference[0] == EXIT_OK
        assert run_main(["estimate", str(spelled_data)], capsys) == reference

    # a POSIX or C.UTF-8 locale gives stdin errors="surrogateescape", a latin-1 locale another codec
    @pytest.mark.parametrize("source", ["file", "stdin", "stdin-surrogateescape"])
    def test_invalid_utf8_is_a_data_error(self, tmp_path, capsys, monkeypatch, source):
        raw = b"1\n\xff\n4\n"
        if source == "file":
            data = tmp_path / "data.txt"
            data.write_bytes(raw)
            assert run_main(["estimate", str(data)], capsys) == (EXIT_DATA, "", f"error: {data}: not valid UTF-8\n")
            return
        errors = "surrogateescape" if source == "stdin-surrogateescape" else "strict"
        for encoding in ("utf-8", "latin-1"):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding, errors))
            assert run_main(["estimate"], capsys) == (EXIT_DATA, "", "error: <stdin>: not valid UTF-8\n")

    @pytest.mark.parametrize(
        "text, quantity",
        [("1e-150\n1e150\n", "predicted_sd_k_hat"), ("1e308\n1e308\n", "sum_x")],
        ids=["predicted-sd", "running-sum"],
    )
    def test_overflowing_report_field_is_a_data_error(self, tmp_path, capsys, text, quantity):
        data = tmp_path / "data.txt"
        data.write_text(text)
        code, out, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error:") and f"{quantity} overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, cv2",
        [
            ("1e-170\n2e-170\n4e-170\n", 3.0 / 7.0),
            ("1e155\n2e155\n4e155\n", 3.0 / 7.0),
            ("5e-300\n1e-300\n", 8.0 / 9.0),
            # the float after 2**-1024, the smallest whose reciprocal is a float
            ("5.56268464626801e-309\n1e-290\n", 2.0),
        ],
        ids=["underflow", "overflow", "underflow-pair", "support-edge"],
    )
    def test_squares_outside_the_float_range_give_a_report(self, tmp_path, capsys, text, cv2):
        # the squares, or their sum, are not floats, but they are summed exactly
        data = tmp_path / "data.txt"
        data.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(["estimate", str(data)], capsys)
        assert (code, err) == (EXIT_OK, "")
        fields = dict(line.split() for line in out.splitlines())
        assert float(fields["cv2_conventional"]) == cv2

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "bad, reason",
        [
            pytest.param(bad, reason, id=bad)
            for bad, reason in [
                ("banana", "not a number: 'banana'"),
                ("-4", "lognormal support is positive reals, got -4.0"),
                ("5e-324", "5e-324 is too close to 0: its reciprocal overflows a float"),
                # 2**-1024, the largest float whose reciprocal overflows
                (
                    "5.562684646268003e-309",
                    "5.562684646268003e-309 is too close to 0: its reciprocal overflows a float",
                ),
                ("nan", "lognormal support is positive reals, got nan"),
                ("inf", "lognormal support is positive reals, got inf"),
                ("0", "lognormal support is positive reals, got 0.0"),
                ("-0", "lognormal support is positive reals, got -0.0"),
            ]
        ],
    )
    def test_bad_line_past_first_block(self, tmp_path, capsys, monkeypatch, source, bad, reason):
        rng = np.random.default_rng(8)
        lines = [repr(x) + "\n" for x in np.exp(rng.normal(0.0, 2.0, size=6000)).tolist()]
        lines[5000] = bad + "\n"
        assert len("".join(lines[:5000])) > _BLOCK_CHARS
        if source == "file":
            data = tmp_path / "data.txt"
            data.write_text("".join(lines))
            argv, name = ["estimate", str(data)], str(data)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
            argv, name = ["estimate"], "<stdin>"
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"error: {name}:5001: {reason}\n"

    def test_multi_block_file_matches_exact_sums(self, tmp_path, capsys):
        values = np.exp(np.random.default_rng(12).normal(0.0, 2.0, size=10**5))
        data = tmp_path / "data.txt"
        data.write_text("".join(repr(x) + "\n" for x in values.tolist()))
        code, out, _ = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_OK
        fields = parse_text_report(out)
        n = values.size
        assert fields["n"] == n
        assert rel_diff(fields["a_n"], math.fsum(values) / n) <= 1e-15
        assert rel_diff(fields["h_n"], n / math.fsum(1.0 / values)) <= 1e-15


class TestSample:
    def test_zero_variance(self, capsys):
        code, out, _ = run_main(
            ["sample", "--mu", "0", "--sigma2", "0", "-n", "3", "--seed", "9"], capsys
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["1", "1", "1"]

    def test_round_trip_through_estimate(self, tmp_path, capsys):
        # one large draw at k = 1: the estimate must land within 4 predicted
        # standard deviations of the truth
        data = tmp_path / "draw.txt"
        code = main(
            ["sample", "--g", "1", "--k", "1", "-n", "100000", "--seed", "3", "-o", str(data)]
        )
        assert code == EXIT_OK
        assert len(data.read_text().splitlines()) == 100000
        code, out, _ = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_OK
        fields = parse_text_report(out)
        assert abs(fields["k_hat"] - 1.0) <= 4.0 * sd_k_hat(100000, 1.0)
        assert fields["n"] == 100000

    def test_both_parameterizations_rejected(self, capsys):
        code, _, err = run_main(
            ["sample", "--mu", "0", "--sigma2", "1", "--g", "1", "--k", "1", "-n", "5"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "parameterization" in err

    def test_neither_parameterization_rejected(self, capsys):
        code, _, _ = run_main(["sample", "-n", "5"], capsys)
        assert code == EXIT_USAGE

    def test_incomplete_pair_rejected(self, capsys):
        for flags, pair in [(["--mu", "0"], "--mu and --sigma2"), (["--g", "1"], "--g and --k")]:
            code, _, err = run_main(["sample", *flags, "-n", "5"], capsys)
            assert code == EXIT_USAGE
            assert f"{pair} must be given together" in err

    def test_bad_domain_value(self, capsys):
        code, _, _ = run_main(["sample", "--g", "-1", "--k", "1", "-n", "5"], capsys)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("target", ["file", "stdout"])
    @pytest.mark.parametrize(
        "mu, sigma2",
        [("800", "1"), ("-800", "1"), ("-740", "0")],
        ids=["overflow", "underflow", "reciprocal-overflow"],
    )
    def test_draws_beyond_float_range_are_refused(self, tmp_path, capsys, mu, sigma2, target):
        data = tmp_path / "draw.txt"
        argv = ["sample", "--mu", mu, "--sigma2", sigma2, "-n", "2"]
        if target == "file":
            argv += ["-o", str(data)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(argv, capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "beyond the float range" in err
        assert not data.exists()

    @pytest.mark.parametrize(
        "n", [1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, 3 * _WRITE_CHUNK + 5]
    )
    def test_chunk_boundaries(self, tmp_path, n):
        data = tmp_path / "draw.txt"
        flags = ["--g", "1", "--k", "0.5", "-n", str(n), "--seed", "4"]
        assert main(["sample", *flags, "-o", str(data)]) == EXIT_OK
        values = sample(params_from_gk(1.0, 0.5), n, 4)
        assert data.read_text() == "".join(format(v, ".17g") + "\n" for v in values)

    @pytest.mark.parametrize("target", ["file", "stdout"])
    def test_draw_beyond_float_range_after_the_first_block_is_refused(
        self, tmp_path, capsys, target
    ):
        # the first inf of this stream is draw 16409, some blocks past the first
        data = tmp_path / "draw.txt"
        argv = ["sample", "--mu", "700", "--sigma2", "6.25", "-n", "200000", "--seed", "2"]
        if target == "file":
            argv += ["-o", str(data)]
        code, out, err = run_main(argv, capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "beyond the float range" in err
        assert not data.exists()

    def test_draw_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LNVAR_MAX_DRAWS", "10")
        data = tmp_path / "draw.txt"
        flags = ["sample", "--g", "1", "--k", "0.5", "-o", str(data)]
        assert main(flags + ["-n", "10"]) == EXIT_OK
        assert len(data.read_text().splitlines()) == 10
        data.unlink()
        code, out, err = run_main(flags + ["-n", "11"], capsys)
        assert code == EXIT_BUDGET
        assert "11" in err and "LNVAR_MAX_DRAWS" in err
        assert not data.exists()

    def test_memory_is_flat_in_n(self, tmp_path):
        def peak(n):
            tracemalloc.start()
            try:
                flags = ["--g", "1", "--k", "0.5", "-n", str(n), "-o", str(tmp_path / "d.txt")]
                assert main(["sample", *flags]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(2**20)
        assert small <= 4 * 2**20
        assert peak(2**22) <= small + 2**19

    def test_negative_seed_is_a_data_error(self, capsys):
        code, out, err = run_main(
            ["sample", "--g", "1", "--k", "1", "-n", "3", "--seed", "-1"], capsys
        )
        assert code == EXIT_DATA
        assert out == ""
        assert "seed" in err
        assert "Traceback" not in err


class TestSimulate:
    FLAGS = ["simulate", "--n", "2", "--cv", "0.5", "--runs", "1000", "--seed", "7"]

    def test_csv_shape_and_predictions(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert (
            main(
                [
                    "simulate",
                    "--n",
                    "2,4",
                    "--cv",
                    "0.3,0.6",
                    "--runs",
                    "400",
                    "--seed",
                    "5",
                    "-o",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "n,cv,runs,seed,mean_khat,sd_khat,pred_mean,pred_sd,se_mean"
        assert len(lines) == 5
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            cv = float(row["cv"])
            assert float(row["pred_mean"]) == cv * cv
            assert float(row["pred_sd"]) == sd_k_hat(int(row["n"]), cv * cv)

    def test_csv_parses_back_losslessly(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(self.FLAGS + ["-o", str(out)])
        cell = run_grid([2], [0.5], master_seed=7, runs_override=1000)[0]
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["mean_khat"]) == cell.mean_khat
        assert float(values["sd_khat"]) == cell.sd_khat
        assert float(values["se_mean"]) == cell.se_mean
        assert int(values["seed"]) == cell.seed

    def test_manifest_recreates_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(self.FLAGS + ["-o", str(out)])
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 7
        assert "timestamp" in manifest and "tool_version" in manifest
        cells = run_grid(master_seed=manifest["master_seed"], **manifest["config"])
        assert cells_to_csv(cells) == out.read_text()

    def test_budget_refusal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LNVAR_MAX_DRAWS", "100")
        code, _, err = run_main(self.FLAGS + ["-o", str(tmp_path / "x.csv")], capsys)
        assert code == EXIT_BUDGET
        assert "2000" in err  # the computed cost: 1000 runs x n=2
        assert not (tmp_path / "x.csv").exists()

    def test_bad_list_flag(self, capsys):
        code, _, _ = run_main(["simulate", "--n", "two"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, names",
        [
            (["--mu-y", "705", "--n", "2", "--cv", "3", "--runs", "100000"], "mu_y=705, cv=3"),
            (["--mu-y", "-705", "--n", "2", "--cv", "3", "--runs", "100000"], "mu_y=-705, cv=3"),
            (["--n", "2", "--cv", "1e300", "--runs", "10"], "cv must be"),
            (["--mu-y", "800", "--n", "2", "--cv", "0.5", "--runs", "10"], "mu_y must be"),
        ],
    )
    def test_float_range_errors_name_the_flag(self, tmp_path, capsys, flags, names):
        out = tmp_path / "grid.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_main(["simulate", *flags, "-o", str(out)], capsys)
        assert code == EXIT_DATA
        assert stdout == ""
        assert err.startswith(f"error: {names}") and err.count("\n") == 1
        # the cv > 2 advisory is the only warning: none from numpy
        assert all(str(w.message).startswith("cv=3 > 2") for w in caught)
        assert not out.exists()

    def test_default_grid_flags(self):
        from lnvar.cli import _parse_list, build_parser

        args = build_parser().parse_args(["simulate"])
        assert args.n == "2,10,100"
        assert args.cv == "0.1,0.5,1.0"
        assert args.runs is None
        assert args.runs_cap == 10**6
        # the CLI's default grid is the library's
        assert tuple(_parse_list(args.n, "--n", int)) == DEFAULT_N_VALUES
        assert tuple(_parse_list(args.cv, "--cv")) == DEFAULT_CV_VALUES
        assert args.runs_cap == DEFAULT_RUNS_CAP
        assert args.seed == DEFAULT_MASTER_SEED


class TestGoldenDigests:
    """SHA-256 of output bytes, so that any change to them is deliberate."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["simulate", "--n", "2,10,100", "--cv", "0.1,0.5,1.0", "--runs", "2000", "--seed", "7"],
                # sd_khat of (2, 0.1) changed once with the one-pass reduction, from 0.432
                # to 0.568 ulp off the exact value; every row but the first changed once
                # with per-n seeds, when the cv cells of one n began to share their draws
                "74f69bb9f1d497f1f10fac68edc180bf72e98e53646663ba29c501938ede7c2d",
            ),
            (
                # one cv: the cell index is the n index, so these bytes did not change
                # with per-n seeds
                ["simulate", "--n", "2,10,100", "--cv", "0.5", "--runs", "2000", "--seed", "7"],
                "91b6603304f8a0245953868fec15656d9ae93cd0cd892f5a1997a08a04729637",
            ),
            (
                # one cv away from mu_y = 0, where the draws are z * sigma + mu_y: these
                # are the bytes of rng.normal(mu_y, sigma), as before per-n seeds
                ["simulate", "--n", "2,10,100", "--cv", "0.5", "--runs", "2000", "--seed", "7",
                 "--mu-y", "-2.5"],
                "2e700bc74e19f10945c316fe83296320c5510d157696763b99a806ebece8f0c0",
            ),
            (
                ["simulate", "--n", "3,40", "--cv", "1.5", "--runs", "300000", "--seed", "11"],
                "b0d52634c6793cda3ebb99ff3f05b65477463774c2fb7d441d69e4c70cd05f73",
            ),
            (["efficiency"], "16f7ee5ab51fd5ac673dfbcd44d4f986d6e24e6fd627e3bc5c505f78431b00b4"),
        ],
        ids=[
            "simulate-3x3",
            "simulate-one-cv",
            "simulate-one-cv-shifted",
            "simulate-one-cv-past-a-block",
            "efficiency-default",
        ],
    )
    def test_csv_digest(self, capsys, argv, digest):
        code, out, _ = run_main(argv, capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "4c59f3f41251fba11cd492435d7ad88013238741f436105c2cba2ebf5678ff50"),
            ("csv", "88c786da4729bdb06e4c938d901b817bd4a8a2eaced216f1cc233da4ad614b46"),
        ],
        ids=["text", "csv"],
    )
    def test_estimate_digest(self, tmp_path, capsys, fmt, digest):
        # 2e4 values span many 16 KiB input blocks
        values = np.random.default_rng(5).lognormal(0.0, 2.0, 20_000)
        data = tmp_path / "data.txt"
        data.write_text("".join(fsig(v) + "\n" for v in values))
        code, out, _ = run_main(["estimate", str(data), "--format", fmt], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize(
        "target, flags, digest",
        [
            (
                target,
                ["--g", "1", "--k", "0.5", "-n", "100000", "--seed", "3"],
                "9139ff65e8ba720a2b5af410a925d22c9551526eeb808c467e51b7cded51abb0",
            )
            for target in ("file", "stdout")
        ]
        + [
            (
                "file",
                # 11,151 of these lines are in exponent notation
                ["--mu", "3", "--sigma2", "100", "-n", "100000", "--seed", "2"],
                "acb70eecfb5c9dc88f375d7506b70d01e2fdcdfc36972183087d5d5aa1cb0c32",
            )
        ],
        ids=["file", "stdout", "exponent-notation"],
    )
    def test_sample_digest(self, tmp_path, capsys, target, flags, digest):
        # 1e5 values span several write chunks
        argv = ["sample", *flags]
        if target == "file":
            data = tmp_path / "draw.txt"
            assert main(argv + ["-o", str(data)]) == EXIT_OK
            raw = data.read_bytes()
        else:
            code, out, _ = run_main(argv, capsys)
            assert code == EXIT_OK
            raw = out.encode("ascii")
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_verify_digest(self, capsys):
        code, out, _ = run_main(["verify"], capsys)
        assert code == EXIT_OK
        digest = "e12fcf2e8f0e6534f8a8a29177efc7af9da3a62a5af080be47c2abef02d9ce7b"
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestFormatLines:
    """_format_lines against _FLOAT_FORMAT % v, value by value."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=np.float64)
        for start in range(0, values.size, _WRITE_CHUNK):
            chunk = values[start : start + _WRITE_CHUNK]
            got, want = _format_lines(chunk), "".join("%.17g\n" % v for v in chunk.tolist())
            if got != want:
                lines = zip(chunk.tolist(), got.split("\n"), want.split("\n"))
                pytest.fail(f"value, got, want: {next((t for t in lines if t[1] != t[2]), None)}")

    def test_log_uniform_across_the_fixed_notation_range(self):
        # 1e-5 to 1e18 covers both sides of fixed notation, e in [-4, 16]
        rng = np.random.default_rng(2015)
        self.check(10.0 ** rng.uniform(-5.0, 18.0, 1_000_000))

    def test_integers_above_2_to_the_53(self):
        rng = np.random.default_rng(7)
        self.check(rng.integers(2**53, 10**17, 100_000).astype(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        tens = [float(f"1e{e}") for e in range(-5, 18)]
        self.check([v for x in tens for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))])

    def test_ties_of_the_seventeenth_digit_round_half_even(self):
        # x = M * 2**-(17 - e), M odd, in [10**e, 10**(e+1)): x * 10**(16 - e)
        # is M * 5**(16 - e) / 2, exactly halfway between two integers
        rng = np.random.default_rng(38)
        ties = []
        for e in range(-4, 16):
            scale = 2 ** (17 - e)
            lo = math.ceil(Fraction(10) ** e * scale)
            hi = min(math.ceil(Fraction(10) ** (e + 1) * scale), 2**53)
            x = np.ldexp((2 * rng.integers(lo // 2, hi // 2, 2000) + 1).astype(np.float64), e - 17)
            assert all((Fraction(v) * 10 ** (16 - e)).denominator == 2 for v in x.tolist())
            ties.append(x)
        self.check(np.concatenate(ties))

    def test_subnormals_extremes_and_short_lines(self):
        tiny = [5e-324, 1e-320, 2.5e-310, sys.float_info.min, np.nextafter(sys.float_info.min, 0.0)]
        extremes = [sys.float_info.max, 1e300, 1e-300, 0.0, -0.0, -1.5, math.inf, -math.inf]
        self.check(tiny + extremes + [math.nan, 0.5, 1.0, 100.0, 123.0, 1e16, 1e-4, 9.5e-5])

    def test_empty(self):
        assert _format_lines(np.array([])) == ""


class TestEfficiency:
    def test_curve_row_at_one(self, tmp_path):
        out = tmp_path / "eff.csv"
        assert (
            main(["efficiency", "--min", "1", "--max", "4", "--points", "10", "-o", str(out)])
            == EXIT_OK
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma2,efficiency"
        s2, eff = lines[1].split(",")
        assert float(s2) == 1.0
        assert abs(float(eff) - 1.0 / (math.e - 1.0) ** 2) <= 1e-6

    def test_invalid_range(self, capsys):
        for flags, message in [
            (["--min", "4", "--max", "1"], "--min must be below --max"),
            (["--min", "0"], "--min must be positive"),
            (["--points", "1"], "--points must be >= 2"),
        ]:
            code, out, err = run_main(["efficiency", *flags], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert message in err

    @pytest.mark.parametrize("bounds", [["--min", "nan", "--max", "2"], ["--max", "nan"]])
    def test_nan_range_states_no_false_comparison(self, capsys, bounds):
        code, out, err = run_main(["efficiency", *bounds], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: --min must be below --max, got --min ")
        assert ">=" not in err

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "eff.csv"
        main(["efficiency", "--min", "0.5", "--max", "2", "--points", "5", "-o", str(out)])
        manifest = json.loads((tmp_path / "eff.csv.manifest.json").read_text())
        assert manifest["command"] == "efficiency"
        assert manifest["config"]["points"] == 5


class TestVerify:
    def test_small_n(self, capsys):
        code, _, _ = run_main(["verify", "--max-n", "2"], capsys)
        assert code == EXIT_OK

    def test_injected_fault_fails_naming_class(self, capsys, monkeypatch):
        from lnvar import oracle

        count = oracle.term_multiplicity
        kind = oracle.TermKind.SHARED_NUMERATOR
        monkeypatch.setattr(oracle, "term_multiplicity", lambda k, n: count(k, n) + (k is kind))
        code, out, err = run_main(["verify"], capsys)
        assert code == EXIT_VERIFY
        assert "shared_numerator" in err
        assert "FAIL" in out

    @pytest.mark.parametrize("stderr", [Refusing(), None], ids=["refusing", "none"])
    def test_a_failure_keeps_its_exit_code_without_stderr(self, capsys, monkeypatch, stderr):
        from lnvar import oracle

        count = oracle.term_multiplicity
        kind = oracle.TermKind.SHARED_NUMERATOR
        monkeypatch.setattr(oracle, "term_multiplicity", lambda k, n: count(k, n) + (k is kind))
        monkeypatch.setattr(sys, "stderr", stderr)
        code, out, err = run_main(["verify", "--max-n", "3"], capsys)
        # the mismatch line is lost; the exit code and the table are not
        assert (code, err) == (EXIT_VERIFY, "")
        assert [line.split()[-1] for line in out.splitlines()] == ["FAIL", "FAIL", "PASS", "FAIL"]

    @pytest.mark.parametrize("flags", [["--omega", "1e300"], ["--max-n", "3", "--omega", "1e200"]])
    def test_omega_beyond_float_range_passes(self, capsys, flags):
        code, out, err = run_main(["verify", *flags], capsys)
        assert code == EXIT_OK
        assert out.count("PASS") == 4
        assert err == ""

    def test_empty_omega_list_is_a_data_error(self, capsys):
        code, out, err = run_main(["verify", "--omega", ","], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert "omegas" in err


class TestTopLevel:
    def test_usage_without_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK

    @staticmethod
    def run_python(*args):
        # the child imports the lnvar under test, installed or not
        paths = [os.path.dirname(os.path.dirname(lnvar.__file__)), os.environ.get("PYTHONPATH")]
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        )

    def run_console(self, *argv):
        return self.run_python("-m", "lnvar", *argv)

    def test_import_loads_neither_scipy_nor_the_thread_pool(self):
        # the library depends only on numpy, and run_grid imports its pool when it runs
        proc = self.run_python("-c", "import sys, lnvar; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "lnvar.oracle" in loaded
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
        assert "concurrent.futures" not in loaded

    def test_console_entry(self):
        proc = self.run_console("verify", "--max-n", "3")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_library_warning_is_one_line_without_a_source_path(self):
        proc = self.run_console("simulate", "--n", "2", "--cv", "3", "--runs", "100")
        assert proc.returncode == EXIT_OK
        with pytest.warns(RuntimeWarning, match="cv=3 > 2"):
            cells = run_grid([2], [3.0], runs_override=100)
        assert proc.stdout == cells_to_csv(cells)
        warning, manifest = proc.stderr.splitlines()
        assert warning.startswith("warning: cv=3 > 2: the estimator's variance grows")
        assert json.loads(manifest)["command"] == "simulate"

    @pytest.mark.parametrize(
        "stream, refusing, argv",
        [
            ("stdin", False, ["estimate"]),
            ("stdout", False, ["estimate", "DATA"]),
            ("stdout", False, ["sample", "--g", "1", "--k", "1", "-n", "10"]),
            ("stdout", False, ["simulate", "--n", "2", "--cv", "0.5", "--runs", "100"]),
            ("stdout", False, ["efficiency", "--points", "3"]),
            ("stdout", False, ["verify", "--max-n", "2"]),
            ("stderr", True, ["estimate", "MISSING"]),
            ("stderr", True, ["simulate", "--n", "2", "--cv", "0.5", "--runs", "100"]),
            ("stderr", False, ["estimate", "MISSING"]),
            ("stderr", False, ["simulate", "--n", "2", "--cv", "0.5", "--runs", "100"]),
        ],
        ids=["estimate-stdin", "estimate-file", "sample", "simulate", "efficiency", "verify",
             "estimate-stderr", "simulate-stderr", "estimate-stderr-none", "simulate-stderr-none"],
    )
    def test_a_closed_standard_stream_is_a_data_error(
        self, tmp_path, capsys, monkeypatch, stream, refusing, argv
    ):
        # Python sets a standard stream to None when the process starts without it;
        # under `2>&-` its stderr may instead wrap a descriptor that refuses writes
        data = tmp_path / "data.txt"
        data.write_text("1\n4\n")
        monkeypatch.setattr(sys, stream, Refusing() if refusing else None)
        paths = {"DATA": str(data), "MISSING": str(tmp_path / "missing.txt")}
        code = main([paths.get(arg, arg) for arg in argv])
        out, err = capsys.readouterr()
        if stream == "stderr":
            # the error line, or simulate's manifest, is lost; the exit code still tells
            assert (code, err) == (EXIT_DATA, "")
            if argv[0] == "simulate":
                assert out.startswith("n,cv,runs,seed,")
            else:
                assert out == ""
        else:
            name = "input" if stream == "stdin" else "output"
            assert (code, err) == (EXIT_DATA, f"error: standard {name} is closed\n")

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["simulate", "--help"]])
    def test_help_or_version_to_a_missing_stdout_is_a_data_error(self, capsys, monkeypatch, argv):
        # argparse would write the text to stderr instead, and exit 0
        monkeypatch.setattr(sys, "stdout", None)
        code = main(argv)
        assert (code, capsys.readouterr().err) == (EXIT_DATA, "error: standard output is closed\n")

    @pytest.mark.parametrize("argv", [["simulate", "--bogus"], ["--runs", "3"], []])
    def test_a_usage_error_with_a_missing_stderr_writes_nothing(self, capsys, monkeypatch, argv):
        # argparse would fall back to stdout for the usage line
        monkeypatch.setattr(sys, "stderr", None)
        code = main(argv)
        assert (code, capsys.readouterr().out) == (EXIT_USAGE, "")

    def test_a_usage_error_is_the_usage_then_the_error_line(self, capsys):
        assert main(["simulate", "--runs", "x"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert (out, err[:38]) == ("", "usage: lnvar simulate [-h] [--n N] [--")
        assert err.endswith("\nlnvar simulate: error: argument --runs: invalid int value: 'x'\n")

    def test_no_module_imports_a_private_name_of_another(self):
        # a leading underscore keeps a name to its module; a dunder such as __version__ is public
        package = pathlib.Path(lnvar.__file__).parent
        imports = [
            f"{path.name}:{node.lineno}: {alias.name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lnvar"))
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
        assert imports == []

    def test_fsig_round_trip(self):
        for v in (0.1, 1.6, 2.4859222776089562, 1e-12, 101010.0):
            assert float(fsig(v)) == v

    @pytest.mark.parametrize(
        "value",
        [
            5e-324,
            sys.float_info.min,
            sys.float_info.max,
            1e-4,
            math.nextafter(1e-4, 0.0),
            1e-5,
            math.nextafter(1e-5, 1.0),
            1e16,
            1e17,
            math.nextafter(1e17, 0.0),
            0.0,
            -0.0,
            math.inf,
            -math.inf,
            math.nan,
        ],
    )
    def test_percent_format_matches_format_spec(self, value):
        # sample writes "%.17g" % v, everything else writes fsig(v)
        assert "%.17g" % value == format(value, ".17g") == fsig(value)


class TestFuzz:
    """Seeded random command lines over every subcommand: each one ends in a
    documented exit code, never in an exception."""

    EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFY, EXIT_BUDGET}
    # (well-formed, malformed) values.  The valid ints are small, so that no
    # accepted command runs long; the huge ones must be refused by a check,
    # the draw budget or a failed allocation (2^59 floats are past any
    # address space).
    INTS = (["0", "1", "2", "3", "-1", str(2**59), "99999999999999999999"], ["", "x", "2.5", "1e3"])
    FLOATS = (
        ["0", "1", "0.5", "3", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "800", "-800"],
        ["", "x"],
    )
    N_LISTS = (["2", "3,2", "2,,3", ",", "1", "99999999999999999999"], ["", "x,2", "2.5"])
    FLOAT_LISTS = (["0.5", "1,2", "0.1,", ",", "nan", "inf", "-1", "0", "1e300", "100"], ["", "x"])
    LINES = (
        ["1", "4", "2.5", "1e-3", "# note", "", "  "],
        ["-4", "0", "nan", "inf", "-inf", "1e-320", "5e-324", "1e308", "1e155", "1e-170",
         "banana", "\ufeff2", "1,2", "0x10", "1_0", "\x00"],
    )
    BUDGETS = (
        [None, "0", "100", "20000", " 7 "],
        ["", " ", "abc", "-5", "1e3"],
    )

    @staticmethod
    def value(rng, pools):
        ok, bad = pools
        return rng.choice(bad if rng.random() < 0.1 else ok)

    def flags(self, rng, options):
        """Each option with probability 1/2, with a value from its pools."""
        argv = []
        for flag, pools in options:
            if rng.random() < 0.5:
                argv += [flag, self.value(rng, pools)]
        return argv

    def command(self, rng, tmp_path, monkeypatch):
        name = rng.choice(["estimate", "sample", "simulate", "efficiency", "verify"])
        output = rng.choice(["-", str(tmp_path / "out.txt")])
        if name == "estimate":
            lines = [self.value(rng, self.LINES) for _ in range(rng.randint(0, 6))]
            text = "".join(line + "\n" for line in lines)
            argv = ["estimate", *self.flags(rng, [("--format", (["text", "csv"], ["xml"]))])]
            if rng.random() < 0.5:
                data = tmp_path / "data.txt"
                data.write_text(text, encoding="utf-8")
                argv.append(str(data))
            else:
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            return argv
        if name == "sample":
            pairs = [["--mu", "--sigma2"], ["--g", "--k"], ["--mu", "--k"], ["--g"], []]
            pair = rng.choices(pairs, weights=[3, 3, 1, 1, 1])[0]
            argv = ["sample", "-n", self.value(rng, self.INTS), "-o", output]
            for flag in pair:
                argv += [flag, self.value(rng, self.FLOATS)]
            return argv + self.flags(rng, [("--seed", self.INTS)])
        if name == "simulate":
            # --n and --runs are always given, so the default grid never runs
            options = [("--cv", self.FLOAT_LISTS), ("--runs-cap", self.INTS),
                       ("--seed", self.INTS), ("--mu-y", self.FLOATS)]
            return ["simulate", "--n", self.value(rng, self.N_LISTS),
                    "--runs", self.value(rng, self.INTS), *self.flags(rng, options), "-o", output]
        if name == "efficiency":
            options = [("--min", self.FLOATS), ("--max", self.FLOATS), ("--points", self.INTS),
                       ("--spacing", (["log", "linear"], ["x"]))]
            return ["efficiency", *self.flags(rng, options), "-o", output]
        max_n = (["0", "1", "2", "3", "4", "-1"], ["", "x"])
        return ["verify", "--max-n", self.value(rng, max_n),
                *self.flags(rng, [("--omega", self.FLOAT_LISTS)])]

    def test_random_command_lines(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(20151)
        seen = set()
        for _ in range(500):
            budget = self.value(rng, self.BUDGETS)
            if budget is None:
                monkeypatch.delenv("LNVAR_MAX_DRAWS", raising=False)
            else:
                monkeypatch.setenv("LNVAR_MAX_DRAWS", budget)
            argv = self.command(rng, tmp_path, monkeypatch)
            with warnings.catch_warnings():
                # the cv > 2 slow-convergence warning is expected for some grids
                warnings.simplefilter("ignore", RuntimeWarning)
                code, _, err = run_main(argv, capsys)
            assert code in self.EXIT_CODES, (argv, budget, code)
            assert "Traceback" not in err, (argv, budget)
            seen.add((argv[0], code))
        # the seed reaches both success and refusal on every subcommand
        for name in ("estimate", "sample", "simulate", "efficiency", "verify"):
            assert (name, EXIT_OK) in seen and (name, EXIT_DATA) in seen, name
