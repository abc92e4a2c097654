"""Command line interface: schemas, conjugate handling, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from extdisc import (
    BudgetExceededError,
    InvalidInputError,
    Method,
    PointSet,
    WeightKind,
    WeightSet,
    certificate_lower_bound,
    equal_weights,
    extreme_l2_exact,
    extreme_linf_exact,
    extreme_linf_lower_mc,
    extreme_lp_exact_even_p,
    extreme_lp_mc,
    load_points,
    save_points,
)
from extdisc import cli
from extdisc.cli import _exponent, main

RESULT_KEYS = {"task", "p", "d", "n", "method", "value", "stderr", "samples", "seed"}
RESULT_REQUIRED = {"task", "p", "d", "n", "method", "value"}


def run_cli(*args):
    """Exit code, stdout and stderr of `extdisc` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in args])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_result_schema(obj):
    assert RESULT_REQUIRED <= set(obj) <= RESULT_KEYS
    assert isinstance(obj["task"], str)
    assert obj["p"] == "inf" or isinstance(obj["p"], (int, float))
    assert isinstance(obj["d"], int) and isinstance(obj["n"], int)
    assert obj["method"] in {"l2-exact", "even-exact", "mc", "linf-exact", "linf-mc"}
    assert isinstance(obj["value"], (int, float)) and math.isfinite(obj["value"])
    assert math.isfinite(obj.get("stderr", 0.0))
    sampled = obj["method"] in {"mc", "linf-mc"}
    assert ({"stderr", "samples", "seed"} <= set(obj)) == sampled


@pytest.fixture
def one_center(tmp_path):
    f = tmp_path / "one_center.csv"
    save_points(f, PointSet([[0.5]]), equal_weights(1))
    return f


@pytest.fixture
def two_points(tmp_path):
    f = tmp_path / "two.csv"
    save_points(f, PointSet([[0.25], [0.75]]), equal_weights(2))
    return f


@pytest.fixture
def empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# no points\n")
    return f


class TestDisc:
    def test_l2_exact_json(self, one_center):
        code, out, err = run_cli("disc", "--input", one_center, "--p", "2", "--method", "l2-exact")
        assert code == 0 and err == ""
        obj = json.loads(out)
        check_result_schema(obj)
        assert obj["task"] == "disc" and obj["method"] == "l2-exact"
        assert obj["p"] == 2.0 and obj["d"] == 1 and obj["n"] == 1
        assert obj["value"] == pytest.approx(12**-0.5, abs=1e-15)

    def test_linf_exact_value(self, two_points):
        code, out, _ = run_cli("disc", "--input", two_points, "--method", "linf-exact")
        assert code == 0
        obj = json.loads(out)
        check_result_schema(obj)
        assert obj["p"] == "inf"
        assert obj["value"] == 0.5

    def test_mc_on_empty_file(self, empty_file):
        code, out, _ = run_cli(
            "disc", "--input", empty_file, "--d", "2", "--p", "3",
            "--method", "mc", "--samples", "200000", "--seed", "7",
        )
        assert code == 0
        obj = json.loads(out)
        check_result_schema(obj)
        expect = 20.0 ** (-2 / 3)
        assert abs(obj["value"] - expect) <= 5 * obj["stderr"]

    def test_conjugate_exponent_equivalence(self, one_center):
        # q = 1.5 resolves to p = 3 exactly
        base = run_cli(
            "disc", "--input", one_center, "--p", "3",
            "--method", "mc", "--samples", "4096", "--seed", "1",
        )
        conj = run_cli(
            "disc", "--input", one_center, "--q", "1.5",
            "--method", "mc", "--samples", "4096", "--seed", "1",
        )
        assert base[0] == conj[0] == 0
        assert base[1] == conj[1]

    def test_qmc_weight_override(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("x1,weight\n0.25,0.9\n0.75,0.1\n")
        a = run_cli("disc", "--input", f, "--p", "2", "--method", "l2-exact")
        b = run_cli("disc", "--input", f, "--p", "2", "--method", "l2-exact", "--weights", "qmc")
        assert a[0] == b[0] == 0
        ps = PointSet([[0.25], [0.75]])
        assert json.loads(b[1])["value"] == pytest.approx(
            extreme_l2_exact(ps, equal_weights(2)).value
        )
        assert json.loads(a[1])["value"] != json.loads(b[1])["value"]

    def test_qmc_weights_keep_an_empty_rule(self, empty_file):
        # an empty rule has no 1/n weights to force: the flag changes nothing
        argv = ("disc", "--input", empty_file, "--d", "2", "--method", "l2-exact")
        plain, forced = run_cli(*argv), run_cli(*argv, "--weights", "qmc")
        assert plain == forced
        assert plain[0] == 0 and json.loads(plain[1])["value"] == 0.08333333333333333

    def test_cancelled_even_p_total_exit_code(self, tmp_path):
        # the binomial terms cancel to a total <= 0 (ROADMAP item 2)
        f = tmp_path / "vdc64x2.csv"
        assert run_cli("generate", "--kind", "vdc", "--n", "64", "--d", "2", "--out", f)[0] == 0
        code, out, err = run_cli("disc", "--input", f, "--p", "12", "--method", "even-exact")
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and "not positive" in err

    def test_sampled_underflow_exit_code(self, one_center):
        # the sampled |delta|^(1e6) underflow; the true value is 0.99997
        code, out, err = run_cli(
            "disc", "--input", one_center, "--p", "1e6",
            "--method", "mc", "--samples", "1000", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "underflows" in err

    def test_even_exact(self, two_points):
        code, out, _ = run_cli("disc", "--input", two_points, "--p", "4", "--method", "even-exact")
        assert code == 0
        check_result_schema(json.loads(out))

    def test_wrong_p_for_method(self, one_center):
        assert run_cli("disc", "--input", one_center, "--p", "3", "--method", "l2-exact")[0] == 2
        assert run_cli("disc", "--input", one_center, "--p", "3", "--method", "even-exact")[0] == 2
        assert run_cli("disc", "--input", one_center, "--p", "inf", "--method", "mc",
                       "--samples", "100", "--seed", "1")[0] == 2
        assert run_cli("disc", "--input", one_center, "--p", "2", "--method", "linf-exact")[0] == 2
        assert run_cli("disc", "--input", one_center, "--p", "3", "--method", "linf-mc",
                       "--samples", "100", "--seed", "1")[0] == 2
        for p in ("inf", "3.5"):
            assert run_cli("disc", "--input", one_center, "--p", p, "--method", "even-exact")[0] == 2

    def test_sampling_flags_required(self, one_center):
        code, _, err = run_cli("disc", "--input", one_center, "--p", "2", "--method", "mc")
        assert code == 2 and "samples" in err

    def test_budget_exhaustion_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        f = tmp_path / "big.csv"
        save_points(f, PointSet(rng.random((40, 2))), equal_weights(40))
        code, _, err = run_cli(
            "disc", "--input", f, "--method", "linf-exact", "--budget", "10"
        )
        assert code == 3 and "budget" in err

    def test_huge_even_p_exit_code(self, one_center):
        code, _, err = run_cli(
            "disc", "--input", one_center, "--p", "1e30", "--method", "even-exact"
        )
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exit_code(self, one_center, budget):
        for method, p in (("linf-exact", "inf"), ("even-exact", "2")):
            code, _, err = run_cli(
                "disc", "--input", one_center, "--p", p, "--method", method, "--budget", budget
            )
            assert code == 2 and "budget" in err

    def test_missing_file(self):
        assert run_cli("disc", "--input", "no_such.csv", "--p", "2", "--method", "l2-exact")[0] == 2

    def test_non_utf8_file_exit_code(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"x1\n0.5\n\xff\n")
        code, out, err = run_cli("disc", "--input", f, "--method", "l2-exact")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "line 3 is not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["inf", "INF", " Infinity ", "+Inf", "iNfInItY", "1e400"])
    def test_infinite_exponent_tokens(self, token):
        assert _exponent(token) == math.inf

    @pytest.mark.parametrize(
        "token, message",
        [("nan", "must be >= 1"), ("-inf", "must be >= 1"), ("0.5", "must be >= 1"),
         ("abc", "'abc' is not a number")],
    )
    def test_bad_exponent_tokens(self, token, message):
        with pytest.raises(InvalidInputError, match=message):
            _exponent(token)

    def test_missing_exponent(self, one_center):
        code, _, err = run_cli(
            "disc", "--input", one_center, "--method", "mc", "--samples", "100", "--seed", "1"
        )
        assert code == 2 and "exponent" in err


@pytest.mark.parametrize(
    "rows, argv",
    [
        ("0.5,0.5\n0.25,0.5\n", ("disc", "--method", "even-exact", "--p", "1030")),
        ("0.5,0.5\n0.25,0.5\n", ("duality-check", "--p", "1100")),
        ("0.5,3\n", ("disc", "--method", "even-exact", "--p", "700")),
        ("0.5,3\n", ("disc", "--method", "mc", "--p", "700")),
        ("0.5,3\n", ("duality-check", "--p", "701")),
    ],
)
def test_overflow_exit_code(tmp_path, rows, argv):
    # a sum past the float maximum is one error line, not a traceback or Infinity
    f = tmp_path / "rule.csv"
    f.write_text("x1,weight\n" + rows)
    sampled = ("--samples", "70000", "--seed", "1")
    code, out, err = run_cli(*argv, "--input", f, *sampled)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err
    assert f"p = {argv[-1]}" in err


@pytest.mark.parametrize("method", ["linf-exact", "l2-exact"])
@pytest.mark.parametrize(
    "rows",
    [
        "x1,weight\n0.5,1.7e308\n0.25,1.7e308\n0.75,1e-300\n",
        "x1,x2,weight\n0.5,0.5,1e308\n0.25,0.75,1e308\n0.75,0.25,-1e308\n",
    ],
    ids=["d1", "d2"],
)
def test_exact_weight_overflow_exit_code(tmp_path, rows, method):
    # weights whose absolute sum passes the float maximum once printed the
    # sup norm as 0.0 or 1e+308 and L2 as Infinity, with exit 0
    f = tmp_path / "rule.csv"
    f.write_text(rows)
    code, out, err = run_cli("disc", "--input", f, "--method", method)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


@pytest.mark.parametrize("p", [64, 512, 1028])
@pytest.mark.parametrize("command", [("disc", "--method", "even-exact"), ("duality-check",)])
def test_even_p_value_over_bound_exit_code(tmp_path, command, p):
    # the cancelled cell sum once printed up to 1.90151 here, over the bound
    # 2^(-1/p) of every rule with these weights; the cancellation bound now
    # rejects it
    f = tmp_path / "rule.csv"
    f.write_text("0.5\n0.25\n")
    sampled = ("--samples", "1000", "--seed", "1")
    code, out, err = run_cli(*command, "--p", p, "--input", f, *sampled)
    assert (code, out) == (4, "")
    assert err.startswith("error: even-p cell sum cancelled") and err.count("\n") == 1
    assert "relative error bound" in err and f"at p = {p}" in err


@pytest.mark.parametrize("command", [("disc", "--method", "even-exact"), ("duality-check",)])
def test_cancelled_even_p_sum_exit_code(tmp_path, command):
    # the cell sum's error bound is 5.5 here; both commands once took its
    # root, 0.0368, for the norm
    f = tmp_path / "vdc32x2.csv"
    assert run_cli("generate", "--kind", "vdc", "--n", "32", "--d", "2", "--out", f)[0] == 0
    sampled = ("--samples", "1000", "--seed", "1")
    code, out, err = run_cli(*command, "--p", "12", "--input", f, *sampled)
    assert (code, out) == (4, "")
    assert err.startswith("error: even-p cell sum cancelled") and err.count("\n") == 1
    assert "relative error bound" in err and "at p = 12" in err


def test_cli_binds_no_engine():
    # `disc` runs the engines through the rows of `engines._METHODS` only
    assert [name for name in vars(cli) if name.startswith("extreme_")] == []


SAMPLING = ("--samples", "3000", "--seed", "7", "--workers", "2")

# method -> (its disc flags, the public engine call it must match, given budget () or (b,))
DIRECT_CALLS = {
    Method.L2_EXACT: ((), lambda ps, ws, b: extreme_l2_exact(ps, ws)),
    Method.EVEN_P_EXACT: (("--p", "4"), lambda ps, ws, b: extreme_lp_exact_even_p(ps, ws, 4, *b)),
    Method.MC: (("--p", "3", *SAMPLING), lambda ps, ws, b: extreme_lp_mc(ps, ws, 3, 3000, 7, 2)),
    Method.LINF_EXACT: ((), lambda ps, ws, b: extreme_linf_exact(ps, ws, *b)),
    Method.LINF_SAMPLED: (SAMPLING, lambda ps, ws, b: extreme_linf_lower_mc(ps, ws, 3000, 7, 2)),
}


@pytest.mark.parametrize("budget", [None, 10, 10**6])
@pytest.mark.parametrize("method", list(Method))
def test_disc_matches_the_public_engine(tmp_path, method, budget):
    # 10 is below the exact engines' work on this rule, 10**6 above it; the
    # sampled methods ignore --budget
    rng = np.random.default_rng(5)
    ps = PointSet(rng.random((12, 2)))
    ws = WeightSet(np.r_[np.full(11, 0.1), -0.05], WeightKind.GENERAL)
    f = tmp_path / "signed12x2.csv"
    save_points(f, ps, ws)
    flags, direct = DIRECT_CALLS[method]
    argv = ["disc", "--input", f, "--method", method.value, *flags]
    if budget is not None:
        argv += ["--budget", budget]
    code, out, err = run_cli(*argv)
    try:
        res = direct(ps, ws, () if budget is None else (budget,))
    except BudgetExceededError as exc:
        assert (code, out, err) == (3, "", f"error: {exc}\n")
        return
    assert (code, err) == (0, "")
    assert out == json.dumps(res.to_json_dict("disc", ps.d, ps.n)) + "\n"


class TestConstants:
    def test_table_layout(self):
        code, out, _ = run_cli("constants", "--p-min", "1.5", "--p-max", "4", "--count", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == "p,a_p,b_p,c_p,y_star,b_method"
        assert len(lines) == 8
        first = lines[2].split(",")
        assert float(first[0]) == 1.5
        assert first[5] == "closed-form-half"

    def test_numeric_branch_reported(self):
        code, out, _ = run_cli("constants", "--p-min", "12", "--p-max", "12", "--count", "1")
        row = out.strip().split("\n")[2].split(",")
        assert row[5] == "numeric"
        assert float(row[4]) < 0.4  # maximizer has left the center

    def test_bad_range(self):
        assert run_cli("constants", "--p-min", "3", "--p-max", "2", "--count", "5")[0] == 2
        assert run_cli("constants", "--p-min", "0.5", "--p-max", "2", "--count", "5")[0] == 2


class TestBounds:
    def header(self, out):
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == "p,d,eps,thm2_lower,nw10_lower,gnewuch_upper"
        return [line.split(",") for line in lines[2:]]

    def test_p2_fills_nw10(self):
        code, out, _ = run_cli("bounds", "--p", "2", "--d-max", "3", "--eps", "0.5")
        assert code == 0
        rows = self.header(out)
        assert len(rows) == 3
        for i, row in enumerate(rows, start=1):
            assert row[0] == "2.0" and int(row[1]) == i
            assert float(row[3]) == pytest.approx(0.0)  # eps = 1/2 kills the bound
            assert float(row[4]) == pytest.approx(0.75 * 2.25**i)
            assert row[5] == ""

    def test_nw10_past_the_float_maximum(self):
        # (9/4)^876 overflows: the table once stopped after 875 rows with a
        # traceback and exit 1
        code, out, _ = run_cli("bounds", "--p", "2", "--d-max", "1000", "--eps", "0.1")
        assert code == 0
        rows = self.header(out)
        assert len(rows) == 1000
        assert [row[4] == "inf" for row in rows] == [d >= 876 for d in range(1, 1001)]
        assert all(math.isfinite(float(row[3])) for row in rows)

    def test_pinf_fills_gnewuch(self):
        code, out, _ = run_cli("bounds", "--p", "inf", "--d-max", "3", "--eps", "0.5")
        assert code == 0
        rows = self.header(out)
        assert rows[0][0] == "inf"
        assert rows[0][3] == "" and rows[0][5] == ""  # d = 1 has no entry
        assert int(rows[1][5]) == 134
        assert rows[1][3] == "" and rows[1][4] == ""

    def test_generic_p_only_thm2(self):
        code, out, _ = run_cli("bounds", "--p", "3", "--d-max", "2", "--eps", "0.1")
        rows = self.header(out)
        assert float(rows[1][3]) > 1.0
        assert rows[0][4] == "" and rows[0][5] == ""

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_nan_eps_rejected_before_output(self, p):
        code, out, err = run_cli("bounds", "--p", p, "--d-max", "3", "--eps", "nan")
        assert code == 2 and out == ""
        assert "eps must be >= 0" in err

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_infinite_eps_rejected_before_output(self, p):
        # the config line would carry "eps": Infinity, which is not JSON
        code, out, err = run_cli("bounds", "--p", p, "--d-max", "3", "--eps", "inf")
        assert code == 2 and out == ""
        assert "eps must be >= 0 and finite" in err

    @pytest.mark.parametrize("p", ["2", "inf"])
    @pytest.mark.parametrize("eps", ["0", "1", "1.5"])
    def test_cells_at_domain_edges(self, p, eps):
        # nw10 needs p = 2 and 0 <= eps <= 1; gnewuch needs p = inf, d >= 2, 0 < eps < 1
        code, out, _ = run_cli("bounds", "--p", p, "--d-max", "3", "--eps", eps)
        assert code == 0
        filled = [tuple(bool(cell) for cell in row[3:]) for row in self.header(out)]
        nw10 = p == "2" and eps != "1.5"
        assert filled == [(p == "2", nw10, False)] * 3

    @pytest.mark.parametrize(
        "argv, last_row",
        [
            (["bounds", "--p", "1e200", "--d-max", "2", "--eps", "0.1"], "1e+200,2,0.1,0.8,,"),
            (
                ["constants", "--p-min", "1e200", "--p-max", "1e200", "--count", "1"],
                "1e+200,0.5,1.0,1.0,1e-08,numeric",
            ),
        ],
    )
    def test_huge_finite_p_exits_0(self, argv, last_row):
        # (p + 1)(p + 2) overflows here; C_p once came out as 1/0 (exit 1)
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.strip().split("\n")[-1] == last_row

    @pytest.mark.parametrize("d_min, d_max", [("0", "2"), ("3", "2")])
    def test_bad_dimension_range(self, d_min, d_max):
        argv = ("--p", "2", "--d-min", d_min, "--d-max", d_max, "--eps", "0.1")
        code, out, err = run_cli("bounds", *argv)
        assert (code, out) == (2, "")
        assert "error: need 1 <= d-min <= d-max" in err

    def test_q_equivalent(self):
        a = run_cli("bounds", "--p", "3", "--d-max", "2", "--eps", "0.1")
        b = run_cli("bounds", "--q", "1.5", "--d-max", "2", "--eps", "0.1")
        assert a[1] == b[1]


class TestCertify:
    def test_matches_library(self, one_center):
        code, out, _ = run_cli("certify", "--input", one_center, "--p", "2")
        assert code == 0
        obj = json.loads(out)
        cert = certificate_lower_bound(PointSet([[0.5]]), 2.0)
        assert obj["task"] == "certify"
        assert obj["value"] == cert.value
        assert obj["initial_term"] == cert.initial_term
        assert obj["interp_term"] == cert.interp_term
        assert obj["norm_sum"] == cert.norm_sum

    def test_empty_input_with_dimension(self, empty_file):
        code, out, _ = run_cli("certify", "--input", empty_file, "--d", "2", "--p", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(12.0**-1 / 2.0)

    def test_huge_finite_p_terms(self, one_center):
        # (p + 1)(p + 2) overflows at p = 1e300; every term once printed as 0.0
        code, out, _ = run_cli("certify", "--input", one_center, "--p", "1e300")
        obj = json.loads(out)
        assert code == 0
        assert (obj["initial_term"], obj["interp_term"], obj["norm_sum"]) == (1.0, 0.5, 1.0)
        assert obj["value"] == 0.25

    def test_p_guard(self, one_center):
        assert run_cli("certify", "--input", one_center, "--p", "1")[0] == 2
        assert run_cli("certify", "--input", one_center, "--p", "inf")[0] == 2


class TestDualityCheck:
    def test_audit_fields(self, one_center):
        code, out, _ = run_cli(
            "duality-check", "--input", one_center, "--p", "2",
            "--samples", "100000", "--seed", "12",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["task"] == "duality-check"
        assert obj["norm_method"] == "l2-exact"
        assert obj["norm"] == pytest.approx(12**-0.5, abs=1e-15)
        assert abs(obj["pairing_z"]) <= 3.0
        assert abs(obj["qnorm_z"]) <= 3.0

    def test_p_guard(self, one_center):
        sampled = ("--input", one_center, "--samples", "100", "--seed", "1")
        assert run_cli("duality-check", *sampled, "--p", "1")[0] == 2
        assert run_cli("duality-check", *sampled, "--p", "inf")[0] == 2

    def test_huge_even_p_exit_code(self, one_center):
        # p + 1 binomial terms pass the cell budget, so the norm is sampled, and
        # |delta|^p underflows there: every p past binary64 ends in exit 2
        code, _, err = run_cli(
            "duality-check", "--input", one_center, "--p", "1e30", "--samples", "100", "--seed", "1"
        )
        assert code == 2 and "sampled |delta|^p underflows at p = 1e+30, d = 1" in err

    def test_even_p_norm_engine_follows_cell_count(self, tmp_path):
        # p = 4 on vdc256x4 has 1.2e18 cells: the norm is sampled, not exit 3
        for n, d, method in ((256, 4, "mc"), (64, 2, "even-exact")):
            f = tmp_path / f"vdc{n}x{d}.csv"
            assert run_cli("generate", "--kind", "vdc", "--n", n, "--d", d, "--out", f)[0] == 0
            code, out, err = run_cli(
                "duality-check", "--input", f, "--p", "4", "--samples", "70000", "--seed", "3"
            )
            assert code == 0, err
            assert json.loads(out)["norm_method"] == method

    def test_cancelled_norm_exit_code(self, tmp_path):
        f = tmp_path / "vdc512x1.csv"
        assert run_cli("generate", "--kind", "vdc", "--n", "512", "--d", "1", "--out", f)[0] == 0
        code, out, err = run_cli(
            "duality-check", "--input", f, "--p", "6", "--samples", "1000", "--seed", "1"
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and "not positive" in err

    def test_zero_workers_exit_code(self, one_center):
        sampled = ("--input", one_center, "--p", "2", "--samples", "1000", "--seed", "1")
        assert run_cli("disc", *sampled, "--method", "mc", "--workers", "0")[0] == 2
        assert run_cli("duality-check", *sampled, "--workers", "0")[0] == 2

    def test_worker_count_neutral(self, one_center):
        args = (
            "duality-check", "--input", one_center, "--p", "2",
            "--samples", str(2 * 65536 + 99), "--seed", "5",
        )
        a = run_cli(*args, "--workers", "1")
        b = run_cli(*args, "--workers", "3")
        assert a[0] == b[0] == 0
        assert a[1] == b[1]


class TestGenerate:
    def test_roundtrip_through_loader(self, tmp_path):
        out_file = tmp_path / "gen.csv"
        code, _, _ = run_cli(
            "generate", "--kind", "vdc", "--n", "4", "--d", "1", "--out", out_file
        )
        assert code == 0
        ps, ws = load_points(out_file)
        assert np.array_equal(ps.coords[:, 0], [0.0, 0.5, 0.25, 0.75])

    def test_stdout_has_config_comment(self):
        code, out, _ = run_cli("generate", "--kind", "grid", "--n", "4", "--d", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        assert lines[1] == "x1,x2"
        assert len(lines) == 6

    def test_random_stdout_is_pinned(self):
        # the bytes of the per-value writer that `reference_points_csv` keeps
        code, out, _ = run_cli("generate", "--kind", "random", "--n", "1000", "--d", "3", "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e775bfa9f5d524a56d5df2cd230b0897ab2e1caafb64eb33aa9d36ef2aa786d0"
        )

    def test_lattice_needs_vector(self):
        assert run_cli("generate", "--kind", "lattice", "--n", "5", "--d", "2")[0] == 2
        code, out, _ = run_cli(
            "generate", "--kind", "lattice", "--n", "5", "--d", "2", "--gen-vector", "1,2"
        )
        assert code == 0

    def test_random_needs_seed(self):
        assert run_cli("generate", "--kind", "random", "--n", "4", "--d", "2")[0] == 2

    def test_bad_vector_string(self):
        assert run_cli(
            "generate", "--kind", "lattice", "--n", "5", "--d", "2", "--gen-vector", "1,x"
        )[0] == 2


def test_unknown_command_exits_2():
    assert run_cli("frobnicate")[0] == 2


@pytest.mark.parametrize("command", ["certify", "duality-check"])
def test_shared_flags_keep_their_help(command):
    code, out, _ = run_cli(command, "--help")
    assert code == 0
    assert "CSV point file" in out and "dimension for empty or headerless files" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["disc", "--method", "l2-exact"],
        ["certify"],
        ["duality-check", "--samples", "100", "--seed", "1"],
        ["bounds", "--d-max", "2", "--eps", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_p_and_q_are_exclusive(one_center, argv):
    rule = [] if argv[0] == "bounds" else ["--input", one_center]
    code, out, err = run_cli(*argv, *rule, "--p", "2", "--q", "2")
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["disc", "--input", "no_such.csv", "--method", "l2-exact"], 2),  # FileNotFoundError
        (["disc", "--input", ".", "--method", "l2-exact"], 2),  # IsADirectoryError
        (["generate", "--kind", "centered", "--n", "1", "--d", "2", "--out", "."], 2),
        (["constants", "--p-min", "2", "--p-max", "3", "--count", "0"], 2),  # InvalidInputError
    ],
)
def test_error_exit_codes(argv, code):
    # BudgetExceededError (3) and InternalConsistencyError (4) are covered above
    exit_code, out, err = run_cli(*argv)
    assert (exit_code, out) == (code, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_module_entry_point(one_center):
    # the other tests call main() in-process; this one runs `python -m extdisc.cli`
    def run(*args):
        cmd = [sys.executable, "-m", "extdisc.cli", *map(str, args)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    argv = ("disc", "--input", one_center, "--method", "l2-exact")
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    check_result_schema(json.loads(out))
    assert out == run_cli(*argv)[1]
    assert run("disc", "--input", "no_such.csv", "--method", "l2-exact")[0] == 2
