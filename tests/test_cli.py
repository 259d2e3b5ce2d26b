"""Command-line interface: exit codes, formats, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import noisestab as ns
from noisestab.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass_and_json(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["verify", "--rho-lo", "0.9", "--rho-hi", "0.914",
                 "--threads", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["pass"] is True
    assert doc["delta"] == 0.0016
    assert doc["lipschitz_m"] == 20.0


def test_verify_fail_exit_code(tmp_path):
    out = tmp_path / "cert.json"
    code = main(["verify", "--rho-lo", "0.9", "--rho-hi", "0.914",
                 "--delta", "0.002", "--threads", "1", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


def test_verify_usage_errors(tmp_path):
    assert main(["verify", "--rho-lo", "0.9", "--rho-hi", "0.5"]) == 2
    out = tmp_path / "no" / "such" / "dir" / "cert.json"
    code = main(["verify", "--rho-lo", "0.7", "--rho-hi", "0.7",
                 "--threads", "1", "--out", str(out)])
    assert code == 2


def test_verify_csv_format(capsys):
    code, out = run(["verify", "--rho-lo", "0.7", "--rho-hi", "0.7002",
                     "--threads", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# rho_lo=0.7 ")  # constants echoed
    assert "delta=0.0016" in lines[0]
    assert lines[1] == "rho,theta,t_rho,eps_star,omega_max"
    assert len(lines) >= 4  # provenance + header + grid rows
    assert all("." in cell for cell in lines[2].split(","))


def test_verify_text_format(capsys):
    code, out = run(["verify", "--rho-lo", "0.7", "--rho-hi", "0.7001",
                     "--threads", "1", "--format", "text"], capsys)
    assert code == 0
    assert "pass      True" in out


def test_verify_shipped_defaults(tmp_path):
    out = tmp_path / "cert.json"
    code = main(["verify", "--threads", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["n_points"] == 5676
    assert doc["rho_lo"] == 0.46 and doc["rho_hi"] == 0.914
    assert doc["worst_theta"] == pytest.approx(-0.00169063, abs=1e-5)


# ---------------------------------------------------------------------------
# eps-star / gamma / bounds-table
# ---------------------------------------------------------------------------

def test_eps_star_text_and_json(capsys):
    code, out = run(["eps-star", "--rho", "0.914"], capsys)
    assert code == 0
    assert "eps_star" in out
    code, out = run(["eps-star", "--rho", "0.914", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["eps_star"] == pytest.approx(0.195055, abs=2e-6)
    assert main(["eps-star", "--rho", "1.5"]) == 2


def test_gamma_command_routes(capsys):
    code, out = run(["gamma", "--eps", "0.1", "--rho", "0.6", "--q", "2",
                     "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == "gamma_q"
    assert doc["value"] == pytest.approx(ns.gamma_q(0.1, 0.6, 2.0), abs=1e-14)

    code, out = run(["gamma", "--eps", "0.1", "--rho", "0.6", "--q", "1",
                     "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["bound"] == "gamma_one"
    assert doc["value"] == pytest.approx(ns.gamma_one(0.1, 0.6), abs=1e-14)

    code, out = run(["gamma", "--eps", "0.1", "--rho", "0.7",
                     "--phi", "one-sym", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["bound"] == "gamma_phi"
    assert doc["value"] == pytest.approx(-0.43134705716197413, abs=1e-8)

    code, out = run(["gamma", "--eps", "0.2", "--rho", "0.5", "--phi", "q-sym",
                     "--q", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(
        ns.gamma_phi(0.2, 0.5, ns.phi_q_symmetric(2)), abs=1e-10)

    assert main(["gamma", "--eps", "0.1", "--rho", "0.6", "--phi", "q-sym"]) == 2


def test_gamma_q_asym_answers_at_q_near_one(capsys):
    # a Phi_q that cancels to ~7e-17/|q - 1| here is noisy enough to fail
    # the quadrature's error budget (exit 2)
    code, out = run(["gamma", "--eps", "0.3", "--rho", "0.5", "--phi", "q-asym",
                     "--q", "1.00000001", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        ns.gamma_phi(0.3, 0.5, ns.phi_one_asymmetric()), abs=1e-7)


def test_bounds_table_shows_published(capsys):
    code, out = run(["bounds-table", "--rho", "0.914"], capsys)
    assert code == 0
    for key in ("eps_star", "omega_max", "beta_argmax", "t_rho", "theta"):
        assert key in out
    assert "0.195055" in out and "-0.00169063" in out


# ---------------------------------------------------------------------------
# brute
# ---------------------------------------------------------------------------

def test_brute_n1_all_checks(capsys):
    code, out = run(["brute", "--n", "1", "--rho", "0.5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,n,rho,tested,max_violation,tolerance,pass"
    # two balanced functions at n = 1: the two dictators
    assert all(",2," in line for line in lines[1:] if line)


def test_brute_rho_list_and_checks(capsys):
    code, out = run(["brute", "--n", "2", "--rho", "0.3,0.7",
                     "--checks", "ck,qstab", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert {d["name"] for d in doc} == {"ck", "qstab"}
    assert {d["rho"] for d in doc} == {0.3, 0.7}
    assert all(d["passed"] for d in doc)


def test_brute_guards():
    assert main(["brute", "--n", "5", "--rho", "0.5"]) == 2
    assert main(["brute", "--n", "6", "--rho", "0.5"]) == 2
    assert main(["brute", "--n", "5", "--rho", "0.5", "--sample", "10"]) == 2
    assert main(["brute", "--n", "5", "--rho", "0.5", "--sample", "0", "--seed", "1"]) == 2
    assert main(["brute", "--n", "2", "--rho", "1.5"]) == 2
    assert main(["brute", "--n", "2", "--rho", "0.5", "--checks", "nope"]) == 2
    assert main(["brute", "--n", "4", "--seed", "3"]) == 2


def test_brute_n4_full_family(capsys):
    code, out = run(["brute", "--n", "4", "--rho", "0.8", "--format", "json"],
                    capsys)
    assert code == 0
    doc = json.loads(out)
    assert {d["name"] for d in doc} == set(["majorization", "gamma", "qstab", "ck"])
    assert all(d["tested"] == 12870 for d in doc)  # C(16, 8) balanced functions
    assert all(d["passed"] for d in doc)


def test_brute_n5_sampled(capsys):
    code, out = run(["brute", "--n", "5", "--rho", "0.6", "--sample", "40",
                     "--seed", "7", "--checks", "ck,majorization"], capsys)
    assert code == 0
    assert "pass" in out


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_eps_star_csv(tmp_path):
    out = tmp_path / "eps.csv"
    code = main(["plot", "--rho-step", "0.01", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert lines[0] == "rho,eps_star"
    assert len(lines) == 100  # header + 99 interior grid points
    rhos = [float(l.split(",")[0]) for l in lines[1:]]
    assert rhos == sorted(rhos)
    assert all(0 < r < 1 for r in rhos)


def test_plot_step_hitting_published_rho(tmp_path):
    out = tmp_path / "eps.csv"
    assert main(["plot", "--rho-step", "0.002", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    match = [float(v) for r, v in rows if abs(float(r) - 0.914) < 1e-9]
    assert len(match) == 1
    assert match[0] == pytest.approx(0.195055, abs=2e-6)


def test_plot_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["plot", "--rho-step", "0.05", "--out", str(a)]) == 0
    assert main(["plot", "--rho-step", "0.05", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_rejects_bad_step():
    assert main(["plot", "--rho-step", "0"]) == 2
    assert main(["plot", "--rho-step", "1.0"]) == 2


# ---------------------------------------------------------------------------
# usage errors: numeric domain, non-finite input, unwritable output
# ---------------------------------------------------------------------------

_MISSING = "<unwritable>"  # replaced by a path under a missing directory


@pytest.mark.parametrize("argv", [
    ["eps-star", "--rho", "1e-9"],
    ["bounds-table", "--rho", "1e-9"],
    ["plot", "--rho-step", "1e-9"],
    ["eps-star", "--rho", "1e-5"],
    ["eps-star", "--rho", "1e-4"],
    ["eps-star", "--rho", "0.5", "--out", _MISSING],
    ["gamma", "--eps", "0.1", "--rho", "0.5", "--q", "2", "--out", _MISSING],
    ["bounds-table", "--out", _MISSING],
    ["brute", "--n", "1", "--rho", "0.5", "--out", _MISSING],
    ["plot", "--rho-step", "0.25", "--out", _MISSING],
    ["verify", "--lipschitz", "inf"],
    ["verify", "--delta", "nan"],
    ["verify", "--rho-lo", "nan"],
    ["verify", "--rho-lo", "0.5", "--rho-hi", "0.5", "--step", "inf"],
    ["gamma", "--eps", "0.1", "--rho", "0.5", "--q", "nan"],
    ["gamma", "--eps", "0.1", "--rho", "0.5", "--q", "inf"],
    ["gamma", "--eps", "0.1", "--rho", "0.5", "--phi", "q-asym", "--q", "nan"],
    ["gamma", "--eps", "0.1", "--rho", "2.0", "--q", "2"],
    ["gamma", "--eps", "0.1", "--rho", "2.0", "--q", "1"],
    ["gamma", "--eps", "0.0", "--rho", "2.0", "--phi", "one-sym"],
    ["brute", "--n", "2", "--rho", ","],
    ["brute", "--n", "2", "--rho", "0.5", "--checks", ","],
    ["brute", "--n", "2", "--rho", "1.5", "--checks", "ck"],
    ["brute", "--n", "0", "--rho", "0.5"],
    ["brute", "--n", "5", "--rho", "0.5", "--sample", "0", "--seed", "1"],
    ["eps-star", "--rho", "abc"],
    ["eps-star", "--rho", "-inf"],
    ["frobnicate"],
    [],
    ["verify", "--step", "1e-12"],
    ["verify", "--rho-hi", "1e300"],
    ["brute", "--n", "5", "--rho", "0.5", "--sample", "100000000", "--seed", "1",
     "--checks", "ck"],
    ["brute", "--n", "2", "--rho", "1e-300", "--checks", "localopt"],
    ["brute", "--n", "2", "--rho", "0", "--checks", "localopt"],
    ["brute", "--n", "2", "--rho", "1", "--checks", "localopt"],
    ["gamma", "--eps", "0.1", "--rho", "0.6", "--phi", "one-sym", "--q", "2"],
    ["gamma", "--eps", "0.1", "--rho", "0.6", "--phi", "one-asym", "--q", "2"],
])
def test_numeric_domain_failure_is_one_line_usage_error(argv, tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "out.txt")
    assert main([missing if a == _MISSING else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, field", [
    (["verify", "--rho-lo", "0.0001", "--rho-hi", "0.0002"], "worst_theta"),
    (["brute", "--n", "5", "--rho", "0.6", "--sample", "3", "--seed", "1",
      "--checks", "localopt", "--format", "json"], "max_violation"),
])
def test_json_writes_null_for_non_finite(argv, field, capsys):
    code, out = run(argv, capsys)
    assert code in (0, 1)
    doc = _strict_json(out)
    assert (doc[0] if isinstance(doc, list) else doc)[field] is None


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["gamma", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: noisestab")


def test_brute_help_lists_every_check(capsys):
    assert main(["brute", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("checks: majorization, gamma, qstab, ck, localopt; "
            "'all' runs majorization, gamma, qstab, ck") in text


# ---------------------------------------------------------------------------
# input sweep: every input gives an answer or one error line
# ---------------------------------------------------------------------------

_floats = st.one_of(st.floats(), st.floats(-0.5, 1.5),
                    st.sampled_from([0.0, 1.0, 0.5, 1e-300]))
_values = _floats.map(repr) | st.sampled_from(["abc", "", "0.5,0.6"])


def _opt(name, value):
    return f"--{name}={value}"


_eps_star = st.builds(lambda rho: ["eps-star", _opt("rho", rho)], _values)
_bounds_table = st.builds(lambda rho: ["bounds-table", _opt("rho", rho)], _values)
_gamma = st.builds(
    lambda eps, rho, q, phi: (["gamma", _opt("eps", eps), _opt("rho", rho)]
                              + ([_opt("q", q)] if q is not None else [])
                              + ([f"--phi={phi}"] if phi else [])),
    _values, _values, st.none() | _values | st.floats(0.1, 4.0).map(repr),
    st.sampled_from([None, "one-sym", "one-asym", "q-sym", "q-asym"]))
_brute = st.builds(
    lambda n, rhos, checks, sample, seed: (
        ["brute", f"--n={n}", "--rho=" + ",".join(map(repr, rhos)),
         "--checks=" + ",".join(checks)]
        + ([f"--sample={sample}"] if sample is not None else [])
        + ([f"--seed={seed}"] if seed is not None else [])),
    st.integers(-1, 3), st.lists(_floats, max_size=2),
    st.lists(st.sampled_from(["ck", "qstab", "majorization", "localopt", "nope"]),
             max_size=2),
    st.none() | st.integers(-1, 20), st.none() | st.integers(-1, 5))
_rho_value = _values | st.floats(0.0, 1.0).map(repr)


def _verify_step(lo, hi, parts, bad):
    """A --step that splits [lo, hi] into `parts` (1..1,000) cells, or
    `bad` where the range does not parse to finite lo < hi."""
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        return bad
    return repr((hi - lo) / parts) if lo < hi and math.isfinite(hi - lo) else bad


@st.composite
def _verify(draw):
    lo, hi = draw(_rho_value), draw(_rho_value)
    step = _verify_step(lo, hi, draw(st.integers(1, 1000)), draw(_values))
    optional = [_opt(name, draw(_values)) for name in ("delta", "lipschitz")
                if draw(st.booleans())]
    return ["verify", _opt("rho-lo", lo), _opt("rho-hi", hi), _opt("step", step), *optional]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_eps_star, _bounds_table, _gamma, _brute, _verify()))
def test_every_input_gives_strict_json_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format=json"])
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    else:
        assert code in (0, 1), (argv, code)
        _strict_json(out.getvalue())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_values | st.floats(1e-5, 1.0).map(repr))
@example("0.9999999999999")  # in (0, 1), yet no grid point lies below 1 - 1e-12
def test_every_plot_step_gives_csv_or_one_error_line(step):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["plot", _opt("rho-step", step)])
    if code == 2:
        assert err.getvalue().startswith("error: "), (step, err.getvalue())
        assert err.getvalue().count("\n") == 1, (step, err.getvalue())
        return
    assert code == 0, (step, code)
    header, *rows = out.getvalue().splitlines()
    assert header == "rho,eps_star" and rows, step
    for row in rows:
        rho, eps = map(float, row.split(","))
        assert 0.0 < rho < 1.0 and 0.0 < eps < 0.5, (step, row)


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "noisestab", "eps-star", "--rho", "0.5",
         "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["eps_star"] == pytest.approx(ns.eps_star(0.5), abs=1e-12)


def test_cli_import_leaves_out_scipy_integrate():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, noisestab.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_certificate_and_sweeps_run_without_scipy():
    # the runtime needs numpy alone: with scipy unimportable, the Gaussian
    # cross-check, a certificate and a brute pass all run
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from noisestab import bounds, certify, cli, sweeps\n"
        "assert bounds.norm_cdf(0.0) == 0.5\n"
        "assert -38.0 < bounds.norm_ppf(1e-300) < -37.0\n"
        "theta = bounds.gaussian_theta(0.3, np.array([0.0, 0.3, 0.7, 1.0]), 0.6)\n"
        "assert theta[0] == 1.0 and 1.0 > theta[1] > theta[2] > 0.0 == theta[3]\n"
        "phi = bounds.phi_q_asymmetric(2.0)\n"
        "assert float(phi(0.3)) < bounds.borell_bound(0.3, 0.6, phi) < 0.0\n"
        "assert certify.verify_interval(0.9, 0.914).passed\n"
        "assert all(r.passed for r in sweeps.run_checks(3, [0.5]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['scipy']"]


def test_usage_error_on_unknown_command():
    assert main(["frobnicate"]) == 2
