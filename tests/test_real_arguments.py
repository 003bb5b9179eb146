"""Every real argument of the public API goes through errors.check_real.

A value that is not a real number is a DomainError naming the parameter, and a
Decimal, a numpy float or a 0-d array computes as the equal float does, to the
types of the result.  So does a Fraction, but for the functions that stay exact
for one: the valid values are dyadic (0.5, 1.5) at n = 2, so those give the
same numbers as their float path.
"""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import lnvar
from lnvar import (
    DomainError,
    LogNormalParams,
    SampleAccumulator,
    TermKind,
    covariance_term,
    efficiency_curve,
    exact_mean_kn,
    exact_var_kn,
    expected_k_n,
    large_sample_efficiency,
    params_from_gk,
    pdf,
    pdf_gk,
    run_cell,
    run_grid,
    run_verification,
    sd_k_hat,
    sd_k_n,
    var_k_hat,
    var_k_n,
)
from lnvar.errors import check_real


def _extended(xs):
    acc = SampleAccumulator()
    acc.extend(xs)
    return acc.n, acc.sum_x, acc.sum_inv_x, acc.sum_x2


# (callable, parameter, call with the value in that parameter's place, a valid float)
REAL_ARGUMENTS = [
    (LogNormalParams, "mu_y", lambda v: LogNormalParams(v, 0.25), 0.5),
    (LogNormalParams, "sigma2_y", lambda v: LogNormalParams(0.0, v), 0.5),
    (params_from_gk, "g", lambda v: params_from_gk(v, 0.5), 0.5),
    (params_from_gk, "k", lambda v: params_from_gk(1.0, v), 0.5),
    (pdf, "x", lambda v: pdf(v, LogNormalParams(0.0, 1.0)), 0.5),
    (pdf_gk, "x", lambda v: pdf_gk(v, 1.0, 0.5), 0.5),
    (pdf_gk, "g", lambda v: pdf_gk(1.0, v, 0.5), 0.5),
    (pdf_gk, "k", lambda v: pdf_gk(1.0, 1.0, v), 0.5),
    (expected_k_n, "k", lambda v: expected_k_n(2, v), 0.5),
    (var_k_n, "k", lambda v: var_k_n(2, v), 0.5),
    (sd_k_n, "k", lambda v: sd_k_n(2, v), 0.5),
    (var_k_hat, "k", lambda v: var_k_hat(2, v), 0.5),
    (sd_k_hat, "k", lambda v: sd_k_hat(2, v), 0.5),
    (large_sample_efficiency, "sigma2_y", large_sample_efficiency, 0.5),
    (SampleAccumulator.extend, "xs", _extended, 0.5),
    (run_cell, "cv", lambda v: run_cell(2, v, 10, 1), 0.5),
    (run_cell, "mu_y", lambda v: run_cell(2, 0.5, 10, 1, mu_y=v), 0.5),
    (run_grid, "cv", lambda v: run_grid([2], [v], runs_override=10), 0.5),
    (run_grid, "mu_y", lambda v: run_grid([2], [0.5], runs_override=10, mu_y=v), 0.5),
    (efficiency_curve, "sigma2_min", lambda v: efficiency_curve(v, 2, 3), 0.5),
    (efficiency_curve, "sigma2_max", lambda v: efficiency_curve(0.1, v, 3), 0.5),
    (covariance_term, "omega", lambda v: [covariance_term(kind, v) for kind in TermKind], 1.5),
    (exact_mean_kn, "omega", lambda v: exact_mean_kn(2, v), 1.5),
    (exact_var_kn, "omega", lambda v: exact_var_kn(2, v), 1.5),
    (run_verification, "omega", lambda v: run_verification(3, [v]), 1.5),
]
ARGUMENT_IDS = [f"{fn.__qualname__}-{param}" for fn, param, _, _ in REAL_ARGUMENTS]

# a value that is not a real number, and how the message shows it
NOT_REAL = [("0.5", "'0.5'"), (b"a", "b'a'"), (None, "None"), (1j, "1j")]


def test_the_table_covers_every_public_callable_that_takes_a_real():
    # the callables of lnvar.__all__ with a real parameter (sample takes a
    # LogNormalParams, and derive_moments one too, which are checked where they are made)
    takes_a_real = {
        "LogNormalParams", "params_from_gk", "pdf", "pdf_gk", "expected_k_n", "var_k_n",
        "sd_k_n", "var_k_hat", "sd_k_hat", "large_sample_efficiency", "SampleAccumulator",
        "run_cell", "run_grid", "efficiency_curve", "covariance_term", "exact_mean_kn",
        "exact_var_kn", "run_verification",
    }
    assert takes_a_real <= set(lnvar.__all__)
    assert {fn.__qualname__.split(".")[0] for fn, _, _, _ in REAL_ARGUMENTS} == takes_a_real


@pytest.mark.parametrize("value, shown", NOT_REAL, ids=["str", "bytes", "None", "complex"])
@pytest.mark.parametrize("fn, param, call, valid", REAL_ARGUMENTS, ids=ARGUMENT_IDS)
def test_a_value_that_is_not_real_is_a_domain_error_naming_the_parameter(
    fn, param, call, valid, value, shown
):
    with pytest.raises(DomainError, match=re.escape(f"{param} must be a real number, got {shown}")):
        call(value)


def _types(result):
    """The type of result, or of each of its elements for a list or tuple."""
    return [type(x) for x in result] if isinstance(result, (list, tuple)) else type(result)


@pytest.mark.parametrize(
    "kind", [Decimal, Fraction, np.float64, np.array], ids=["Decimal", "Fraction", "float64", "0-d"]
)
@pytest.mark.parametrize("fn, param, call, valid", REAL_ARGUMENTS, ids=ARGUMENT_IDS)
def test_a_real_that_is_not_a_float_gives_the_equal_floats_result(fn, param, call, valid, kind):
    value = Decimal(str(valid)) if kind is Decimal else kind(valid)
    got, want = call(value), call(valid)
    assert got == want
    if kind is not Fraction:  # which the functions exact for a Fraction compute with
        assert _types(got) == _types(want)


def test_the_exact_functions_read_a_decimal_as_its_float():
    # not at the decimal's exact value, 11/10, where the float 1.1 is a little less
    assert exact_mean_kn(2, Decimal("1.1")) == exact_mean_kn(2, 1.1) != Fraction(1, 20)
    assert exact_var_kn(3, Decimal("1.1")) == exact_var_kn(3, 1.1)


def test_check_real_contract():
    # bool is a number, True being 1, as check_int takes it; numpy's bool is not
    assert check_real(True, "k") == 1.0 and type(check_real(True, "k")) is float
    assert var_k_hat(2, True) == var_k_hat(2, 1.0)
    with pytest.raises(DomainError, match="^k must be a real number, got True$"):
        check_real(np.bool_(True), "k")
    # a 0-d array is its value, and a str in one shows quoted
    assert check_real(np.array(Fraction(1, 2), dtype=object), "k") == 0.5
    with pytest.raises(DomainError, match="^cv must be a real number, got '0.5'$"):
        run_cell(2, np.array("0.5"), 10, 1)
    # a Decimal NaN is not a real number; a float NaN keeps its range message
    with pytest.raises(DomainError, match="^x must be a real number, got NaN$"):
        pdf(Decimal("NaN"), LogNormalParams(0.0, 1.0))
    with pytest.raises(DomainError, match="^x must be positive and finite, got nan$"):
        pdf(float("nan"), LogNormalParams(0.0, 1.0))
    # a Decimal past the float range is compared unrounded
    with pytest.raises(DomainError, match="^k must be <= 1.7976931348623157e[+]308, got 1E[+]400$"):
        var_k_hat(2, Decimal("1e400"))
    # a positive value that rounds to 0.0 is refused where the float must be positive; a
    # function exact for a Fraction computes with it, and a non-negative k may be 0.0
    with pytest.raises(DomainError, match="^x rounds to 0.0 as a float, got about 1e-400$"):
        pdf(Fraction(1, 10**400), LogNormalParams(0.0, 1.0))
    with pytest.raises(DomainError, match="^cv rounds to 0.0 as a float, got 1E-400$"):
        run_cell(2, Decimal("1e-400"), 10, 1)
    assert expected_k_n(2, Fraction(1, 10**400)) == Fraction(1, 2 * 10**400)
    assert var_k_hat(2, Fraction(1, 10**400)) == 0.0
    # LogNormalParams holds the floats it computes with
    params = LogNormalParams(Fraction(1, 2), Decimal("0.25"))
    assert (type(params.mu_y), type(params.sigma2_y)) == (float, float)
    assert params == LogNormalParams(0.5, 0.25)


def test_a_str_shows_quoted_where_an_integer_is_asked():
    with pytest.raises(DomainError, match="^n must be an integer, got '2'$"):
        run_grid(["2"], [0.5])


@pytest.mark.parametrize(
    "xs, shown",
    [(["1", "2"], "'1'"), ("12", "'12'"), (np.array([1 + 0j]), r"\(1\+0j\)"),
     ([Fraction(1, 2), "2"], "'2'"), ([1.0, None], "None")],
    ids=["strs", "str", "complex-array", "object-with-str", "object-with-None"],
)
def test_extend_refuses_a_value_that_is_not_real(xs, shown):
    acc = SampleAccumulator.from_values([2.0])
    with pytest.raises(DomainError, match=f"^each value of xs must be a real number, got {shown}$"):
        acc.extend(xs)
    assert (acc.n, acc.sum_x, acc.sum_inv_x, acc.sum_x2) == (1, 2.0, 0.5, 4.0)


def test_extend_reads_objects_that_are_reals_as_before():
    assert _extended([Fraction(1, 2), 3, Decimal("1.5"), True]) == _extended([0.5, 3.0, 1.5, 1.0])
