import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

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
    cells_to_csv,
    fsig,
    main,
)
from lnvar.estimator import sd_k_hat
from lnvar.model import params_from_gk, sample
from lnvar.montecarlo import GridConfig, run_grid

from _properties import rel_diff


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

    def test_underflowing_moment_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1e-170\n2e-170\n4e-170\n")
        code, _, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert err.startswith("error:")
        assert "Traceback" not in err

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

    # a POSIX or C.UTF-8 locale gives stdin errors="surrogateescape"
    @pytest.mark.parametrize("source", ["file", "stdin", "stdin-surrogateescape"])
    def test_invalid_utf8_is_a_data_error(self, tmp_path, capsys, monkeypatch, source):
        raw = b"1\n\xff\n4\n"
        if source == "file":
            data = tmp_path / "data.txt"
            data.write_bytes(raw)
            argv, name = ["estimate", str(data)], str(data)
        else:
            errors = "surrogateescape" if source == "stdin-surrogateescape" else "strict"
            stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors=errors)
            monkeypatch.setattr(sys, "stdin", stdin)
            argv, name = ["estimate"], "<stdin>"
        code, out, err = run_main(argv, capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"error: {name}: not valid UTF-8\n"

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

    def test_overflowing_moment_is_a_data_error(self, tmp_path, capsys):
        # the sum of squares overflows: no silent cv2_conventional = 0, no
        # numpy warning
        data = tmp_path / "data.txt"
        data.write_text("1e155\n2e155\n4e155\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(["estimate", str(data)], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error:") and "cv2_conventional" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("bad", ["banana", "-4"])
    def test_bad_line_past_first_block(self, tmp_path, capsys, monkeypatch, source, bad):
        rng = np.random.default_rng(8)
        lines = [repr(x) + "\n" for x in np.exp(rng.normal(0.0, 2.0, size=6000)).tolist()]
        lines[5000] = bad + "\n"
        assert len("".join(lines[:5000])) > _BLOCK_CHARS
        if source == "file":
            data = tmp_path / "data.txt"
            data.write_text("".join(lines))
            argv = ["estimate", str(data)]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
            argv = ["estimate"]
        code, _, err = run_main(argv, capsys)
        assert code == EXIT_DATA
        assert ":5001:" in err

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

    def test_deterministic_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        flags = ["sample", "--g", "2", "--k", "0.5", "-n", "50", "--seed", "11"]
        assert main(flags + ["-o", str(out1)]) == EXIT_OK
        assert main(flags + ["-o", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

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
        code, _, _ = run_main(["sample", "--mu", "0", "-n", "5"], capsys)
        assert code == EXIT_USAGE

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

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.FLAGS + ["-o", str(out1)]) == EXIT_OK
        assert main(self.FLAGS + ["-o", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

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
        cfg = GridConfig(
            n_values=[2], cv_values=[0.5], master_seed=7, runs_override=1000
        )
        cell = run_grid(cfg)[0]
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
        cfg = GridConfig(master_seed=manifest["master_seed"], **manifest["config"])
        assert cells_to_csv(run_grid(cfg)) == out.read_text()

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
        default = GridConfig.default()
        assert tuple(_parse_list(args.n, "--n", int)) == default.n_values
        assert tuple(_parse_list(args.cv, "--cv")) == default.cv_values
        assert args.runs_cap == default.runs_cap
        assert args.seed == default.master_seed


class TestGoldenDigests:
    """SHA-256 of output bytes, so that any change to them is deliberate."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["simulate", "--n", "2,10,100", "--cv", "0.1,0.5,1.0", "--runs", "2000", "--seed", "7"],
                "0afea9c1a04d0a3f83d968c251e20c8a1bf35d023a4c64da6883787993485069",
            ),
            (["efficiency"], "16f7ee5ab51fd5ac673dfbcd44d4f986d6e24e6fd627e3bc5c505f78431b00b4"),
        ],
        ids=["simulate-3x3", "efficiency-default"],
    )
    def test_csv_digest(self, capsys, argv, digest):
        code, out, _ = run_main(argv, capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "e45728ee4d04a05a23fac020e92cb13285321e3b6eb663f58eceddae6e35edda"),
            ("csv", "f92bd3216cd6776036df58bdf58058236c49ff4952710f2ee8709e8da1fb1690"),
        ],
    )
    def test_estimate_digest(self, tmp_path, capsys, fmt, digest):
        # 2e4 values span many 16 KiB input blocks
        values = np.random.default_rng(5).lognormal(0.0, 2.0, 20_000)
        data = tmp_path / "data.txt"
        data.write_text("".join(fsig(v) + "\n" for v in values))
        code, out, _ = run_main(["estimate", str(data), "--format", fmt], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("target", ["file", "stdout"])
    def test_sample_digest(self, tmp_path, capsys, target):
        # 1e5 values span several write chunks
        argv = ["sample", "--g", "1", "--k", "0.5", "-n", "100000", "--seed", "3"]
        if target == "file":
            data = tmp_path / "draw.txt"
            assert main(argv + ["-o", str(data)]) == EXIT_OK
            raw = data.read_bytes()
        else:
            code, out, _ = run_main(argv, capsys)
            assert code == EXIT_OK
            raw = out.encode("ascii")
        digest = "9139ff65e8ba720a2b5af410a925d22c9551526eeb808c467e51b7cded51abb0"
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_verify_digest(self, capsys):
        code, out, _ = run_main(["verify"], capsys)
        assert code == EXIT_OK
        digest = "e12fcf2e8f0e6534f8a8a29177efc7af9da3a62a5af080be47c2abef02d9ce7b"
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


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

    def test_strictly_decreasing(self, capsys):
        code, out, _ = run_main(
            ["efficiency", "--min", "0.01", "--max", "4", "--points", "100"], capsys
        )
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert len(rows) == 100
        values = [float(r.split(",")[1]) for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_range(self, capsys):
        code, _, _ = run_main(["efficiency", "--min", "4", "--max", "1"], capsys)
        assert code == EXIT_USAGE

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "eff.csv"
        main(["efficiency", "--min", "0.5", "--max", "2", "--points", "5", "-o", str(out)])
        manifest = json.loads((tmp_path / "eff.csv.manifest.json").read_text())
        assert manifest["command"] == "efficiency"
        assert manifest["config"]["points"] == 5


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_main(["verify"], capsys)
        assert code == EXIT_OK
        assert out.count("PASS") == 4
        assert "FAIL" not in out

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

    @pytest.mark.parametrize("flags", [["--omega", "1e300"], ["--max-n", "3", "--omega", "1e200"]])
    def test_omega_beyond_float_range_is_a_data_error(self, capsys, flags):
        code, out, err = run_main(["verify", *flags], capsys)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error: omega=") and err.count("\n") == 1

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
    def run_console(*argv):
        # the child imports the lnvar under test, installed or not
        paths = [os.path.dirname(os.path.dirname(lnvar.__file__)), os.environ.get("PYTHONPATH")]
        return subprocess.run(
            [sys.executable, "-m", "lnvar", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        )

    def test_console_entry(self):
        proc = self.run_console("verify", "--max-n", "3")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_library_warning_is_one_line_without_a_source_path(self):
        proc = self.run_console("simulate", "--n", "2", "--cv", "3", "--runs", "100")
        assert proc.returncode == EXIT_OK
        with pytest.warns(RuntimeWarning, match="cv=3 > 2"):
            cells = run_grid(GridConfig(n_values=[2], cv_values=[3.0], runs_override=100))
        assert proc.stdout == cells_to_csv(cells)
        warning, manifest = proc.stderr.splitlines()
        assert warning.startswith("warning: cv=3 > 2: the estimator's variance grows")
        assert json.loads(manifest)["command"] == "simulate"

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
