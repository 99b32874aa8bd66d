"""Command-line interface: exit codes, output files, manifests, and the
Markdown report tables."""

import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bootctrl import bootpoly, cli, crypto_sim, lp
from bootctrl.bootpoly import BootstrapSpec, fit, load_poly, poly_to_json, save_poly
from bootctrl.cli import main
from bootctrl.crypto_sim import SchemeParams, save_scheme
from bootctrl.statespace import save_system


def run(args):
    return main(args)


# --------------------------------------------------------------------------
# fit-poly


def test_fit_poly_writes_poly_and_manifest(tmp_path, capsys):
    code = run(["fit-poly", "--degree", "25", "--K", "2", "--epsilon", "0.5",
                "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma_certified" in out and "usable" in out
    poly = load_poly(tmp_path / "poly.json")
    assert poly.gamma_certified <= 0.25
    manifest = json.loads((tmp_path / "fit_poly_manifest.json").read_text())
    assert manifest["command"] == "fit-poly"
    assert manifest["parameters"]["degree"] == 25


def test_fit_and_fit_poly_never_call_verify(monkeypatch, tmp_path):
    """verify is only the tests' sampled cross-check: with every binding of
    it in the package made to raise, fit and fit-poly --csv still succeed."""
    def no_verify(*args):
        raise AssertionError("verify ran")

    real = bootpoly.verify
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "bootctrl"]:
        for attr in [a for a, v in vars(module).items() if v is real]:
            monkeypatch.setattr(module, attr, no_verify)
    assert bootpoly.verify is no_verify
    assert fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=9)).usable
    assert run(["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5",
                "--csv", "profile.csv", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "profile.csv").exists()


def test_fit_poly_csv_profile(tmp_path):
    code = run(["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5",
                "--csv", "profile.csv", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "m,p_of_m,m_mod_q,relative_error"
    assert len(lines) == 4002  # header + grid
    poly = load_poly(tmp_path / "poly.json")
    q, r, c = poly.spec.q, poly.spec.half_range, poly.coefficients.tolist()
    zero_rows = 0
    for line, grid_m in zip(lines[1:], np.linspace(-r, r, 4001).tolist()):
        m, pm, target, rel = (float(cell) for cell in line.split(","))
        assert m == grid_m
        # Clenshaw's recurrence in numpy's order, on plain floats
        x = m / r
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            c0, c1 = c[-i] - c1, c0 + c1 * (2 * x)
        assert pm == c0 + c1 * x
        ratio = m / q
        assert target == m - q * math.copysign(math.floor(abs(ratio) + 0.5), ratio)
        if target == 0:
            zero_rows += 1
            assert math.isnan(rel)
        else:
            assert rel == abs(pm - target) / abs(target)
    assert zero_rows >= 1


def test_fit_poly_degree_too_low_fails_with_best_gamma(tmp_path, capsys):
    code = run(["fit-poly", "--degree", "3", "--K", "2", "--epsilon", "0.5",
                "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "best gamma" in err
    assert not (tmp_path / "poly.json").exists()


def test_fit_poly_reports_a_failed_fitting_lp(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lp, "_MAX_ITER", 2)
    code = run(["fit-poly", "--degree", "5", "--K", "1", "--epsilon", "0.5",
                "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("fit failed: fitting LP failed: interior-point method did "
                          "not converge in 2 iterations (best gamma ")
    assert not (tmp_path / "poly.json").exists()


def test_fit_poly_trivial_identity(tmp_path, capsys):
    code = run(["fit-poly", "--degree", "1", "--K", "0", "--epsilon", "0.5",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert "gamma_certified = 0.000000" in capsys.readouterr().out


@pytest.mark.parametrize("hamming_weight, K", [(2, 1), (4, 2)])
def test_fit_poly_takes_K_from_a_scheme(tmp_path, scheme, hamming_weight, K):
    """--scheme sets K to the scheme's wrap bound floor((h + 1 + eps) / 2):
    the poly is the --K fit's bit for bit, and the manifest records K."""
    path = tmp_path / "scheme.json"
    save_scheme(path, replace(scheme, hamming_weight=hamming_weight))
    assert run(["fit-poly", "--degree", "9", "--scheme", str(path), "--epsilon", "0.5",
                "--out-dir", str(tmp_path / "scheme")]) == 0
    assert run(["fit-poly", "--degree", "9", "--K", str(K), "--epsilon", "0.5",
                "--out-dir", str(tmp_path / "K")]) == 0
    got = load_poly(tmp_path / "scheme" / "poly.json")
    want = load_poly(tmp_path / "K" / "poly.json")
    assert got.spec.K == K and got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.gamma_certified == want.gamma_certified
    manifest = json.loads((tmp_path / "scheme" / "fit_poly_manifest.json").read_text())
    assert manifest["parameters"]["K"] == K
    assert manifest["parameters"]["scheme"] == str(path)


@pytest.mark.parametrize("flags, message", [
    ([], "one of the arguments --K --scheme is required"),
    (["--K", "2", "--scheme", "s.json"], "argument --scheme: not allowed with argument --K"),
], ids=["neither", "both"])
def test_fit_poly_needs_exactly_one_of_K_and_scheme(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as excinfo:
        run(["fit-poly", "--degree", "9", "--epsilon", "0.5", *flags,
             "--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("content", [None, "{}"], ids=["missing", "no_fields"])
def test_fit_poly_with_a_bad_scheme_file_is_an_exit_code(tmp_path, capsys, content):
    path = tmp_path / "scheme.json"
    if content is not None:
        path.write_text(content)
    code = run(["fit-poly", "--degree", "9", "--scheme", str(path), "--epsilon", "0.5",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load --scheme {path}") and err.count("\n") == 1
    assert not (tmp_path / "poly.json").exists()


def test_fit_poly_with_a_scheme_and_an_infinite_epsilon_is_an_exit_code(tmp_path, capsys,
                                                                       scheme):
    """The wrap bound is not formed from an infinite eps (math.floor would
    raise OverflowError): exit 1 and one line naming epsilon."""
    path = tmp_path / "scheme.json"
    save_scheme(path, scheme)
    code = run(["fit-poly", "--degree", "9", "--scheme", str(path), "--epsilon", "inf",
                "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "fit aborted: epsilon must be a finite real number, got inf\n"


# --------------------------------------------------------------------------
# analyze


def test_analyze_direct_reference_value(tmp_path, capsys):
    code = run(["analyze", "--gamma", "0.2296", "--theorem", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert "CERTIFIED" in capsys.readouterr().out
    report = json.loads((tmp_path / "analysis_report.json").read_text())
    assert report["verdict"] == "CERTIFIED"
    assert abs(report["gain"] - 5.13) <= 0.1
    assert report["certificate"]["X"] is not None
    assert (tmp_path / "analyze_manifest.json").exists()


def test_analyze_reports_not_certified_with_exit_zero(tmp_path, capsys):
    """Slope 0.6 admits no direct-test certificate: a verdict, not a failure."""
    code = run(["analyze", "--gamma", "0.6", "--theorem", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == "NOT_CERTIFIED (THEOREM_1, T_BS=1, sector slope 0.6000)\n"
    report = json.loads((tmp_path / "analysis_report.json").read_text())
    assert report["verdict"] == "NOT_CERTIFIED"


def test_analyze_report_table(tmp_path, capsys):
    code = run(["analyze", "--gamma", "0.2296", "--theorem", "2", "--tbs",
                "10", "--report", "--out-dir", str(tmp_path)])
    assert code == 0
    md = (tmp_path / "analysis_report.md").read_text()
    assert "| direct | 1 |" in md
    assert "| lifted | 10 |" in md
    rows = [ln for ln in md.splitlines() if ln.startswith("| lifted")]
    gain = float(rows[0].split("|")[4].split("(")[0])
    assert abs(gain - 3.97) <= 0.1


def test_analyze_report_reuses_direct_test(tmp_path, monkeypatch):
    """With --theorem 1 the main run is the direct test; --report must not
    run it a second time."""
    calls = []
    real = cli.analyze_l2_gain

    def counting(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze_l2_gain", counting)
    code = run(["analyze", "--gamma", "0.2296", "--theorem", "1", "--report",
                "--tol", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    assert "| direct | 1 |" in (tmp_path / "analysis_report.md").read_text()


def test_analyze_numerical_failure_is_an_exit_code(tmp_path, monkeypatch,
                                                   capsys):
    def failing(*args, **kwargs):
        raise RuntimeError("barrier solve ended in NUMERICAL_FAILURE")

    monkeypatch.setattr(cli, "analyze_l2_gain", failing)
    code = run(["analyze", "--gamma", "0.2296", "--theorem", "1",
                "--out-dir", str(tmp_path)])
    assert code == 1
    assert "analysis aborted: barrier solve" in capsys.readouterr().err
    assert not (tmp_path / "analysis_report.json").exists()


def test_analyze_sector_from_poly(tmp_path, fitted_poly):
    poly_path = tmp_path / "p.json"
    save_poly(poly_path, fitted_poly)
    code = run(["analyze", "--poly", str(poly_path), "--theorem", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "analysis_report.json").read_text())
    assert report["gamma_sector"] == fitted_poly.gamma_certified
    # tighter sector than the reference slope: at least as good a gain
    assert report["gain"] <= 5.23


def test_analyze_refuses_gamma_together_with_poly(tmp_path, capsys, fitted_poly):
    """--gamma 0.9 with --poly used to certify silently at the poly's
    slope; the two flags together are an input error naming both."""
    poly_path = tmp_path / "p.json"
    save_poly(poly_path, fitted_poly)
    code = run(["analyze", "--gamma", "0.9", "--poly", str(poly_path),
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--gamma" in err and "--poly" in err and err.count("\n") == 1
    assert not (tmp_path / "analysis_report.json").exists()


def test_analyze_refuses_a_poly_slope_of_one_or_more(tmp_path, capsys, fitted_poly):
    """A --poly whose gamma_certified is 1.5 admits sign flips, so it
    defines no usable sector (analysis.sector_from_bootstrap): exit 2 with
    one line naming the file and the slope, and no report."""
    poly_path = tmp_path / "steep.json"
    data = poly_to_json(fitted_poly)
    data["gamma_certified"] = 1.5
    poly_path.write_text(json.dumps(data))
    code = run(["analyze", "--poly", str(poly_path), "--theorem", "1",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(poly_path) in err and "1.5000 >= 1" in err and err.count("\n") == 1
    assert not (tmp_path / "analysis_report.json").exists()


def test_analyze_requires_slope_for_bootstrap_mode(tmp_path, capsys):
    code = run(["analyze", "--theorem", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "--gamma or --poly" in capsys.readouterr().err


def test_analyze_reset_reports_the_slope_it_used(tmp_path, capsys):
    """Reset mode certifies with slope 1 whatever --gamma says, and the
    printed line says so, as the JSON does."""
    code = run(["analyze", "--mode", "reset", "--tbs", "5", "--gamma", "0.5",
                "--tol", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "sector slope 1.0000" in capsys.readouterr().out
    report = json.loads((tmp_path / "analysis_report.json").read_text())
    assert report["gamma_sector"] == 1.0


def test_analyze_fir_requires_length(tmp_path, capsys):
    code = run(["analyze", "--mode", "fir", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "--fir-length" in capsys.readouterr().err


# --------------------------------------------------------------------------
# simulate


def test_simulate_plaintext(tmp_path, capsys):
    code = run(["simulate", "--mode", "plaintext", "--steps", "200",
                "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "simulation_result.json").read_text())
    assert result["mode"] == "PLAINTEXT_REFERENCE"
    assert result["refresh_events"] == 0
    traj = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert len(traj) == 201  # header + steps
    assert traj[0].startswith("t,x0,x1,xc0,xc1,u0,y0")


def test_simulate_encrypted_with_events(tmp_path, fitted_poly, capsys):
    poly_path = tmp_path / "p.json"
    save_poly(poly_path, fitted_poly)  # q = 1; the CLI rescales to q0
    code = run(["simulate", "--mode", "encrypted", "--poly", str(poly_path),
                "--steps", "300", "--tbs", "10", "--seed", "1", "--report",
                "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "simulation_result.json").read_text())
    assert result["violations"] == 0
    assert result["refresh_events"] == 2 * 29  # nc * floor(299/10)
    assert result["max_fidelity_ratio"] <= 1.0
    events = (tmp_path / "refresh_events.csv").read_text().splitlines()
    assert events[0] == "step,r,m_plus_e,output,poly_error,relative_error,violation"
    assert len(events) == 1 + result["refresh_events"]
    assert "empirical l2 ratio" in (tmp_path / "simulation_report.md").read_text()


def test_simulate_encrypted_at_a_large_n(tmp_path, fitted_poly, scheme):
    """A scheme file at n = 4096 (the demo scheme otherwise) runs 200
    encrypted steps with no violation: encryption draws only the
    secret's support, so a large n costs no more than n = 16."""
    scheme_path, poly_path = tmp_path / "n4096.json", tmp_path / "p.json"
    save_scheme(scheme_path, replace(scheme, n=4096))
    save_poly(poly_path, fitted_poly)
    code = run(["simulate", "--mode", "encrypted", "--scheme", str(scheme_path),
                "--poly", str(poly_path), "--steps", "200", "--tbs", "10",
                "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "simulation_result.json").read_text())
    assert result["violations"] == 0 and result["refresh_events"] == 2 * 19


def test_simulate_encrypted_requires_poly(tmp_path, capsys):
    code = run(["simulate", "--mode", "encrypted", "--out-dir",
                str(tmp_path)])
    assert code == 2
    assert "--poly" in capsys.readouterr().err


def test_simulate_fir_requires_length(tmp_path, capsys):
    code = run(["simulate", "--mode", "fir", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "--fir-length" in capsys.readouterr().err


def test_simulate_reports_scheme_failure(tmp_path, fitted_poly, capsys):
    """A modulus too small for the signal scale aborts with a clear message
    and a nonzero exit instead of a traceback."""
    tiny = SchemeParams(n=16, q0=2 ** 16, c=2 ** 16, L=10, noise_bound=8,
                        seed=0, hamming_weight=4)
    scheme_path = tmp_path / "tiny.json"
    save_scheme(scheme_path, tiny)
    poly_path = tmp_path / "p.json"
    save_poly(poly_path, fitted_poly)
    code = run(["simulate", "--mode", "encrypted", "--scheme",
                str(scheme_path), "--poly", str(poly_path), "--steps", "50",
                "--out-dir", str(tmp_path)])
    assert code == 1
    assert "simulation aborted" in capsys.readouterr().err


def test_simulate_reports_a_ledger_violation(monkeypatch, tmp_path, capsys):
    """A rescale that reports a noise bound of 0 fails the ledger check:
    simulate exits 1 with one line on stderr naming the step, not a
    traceback."""
    rescale = crypto_sim.rescale
    monkeypatch.setattr(crypto_sim, "rescale",
                        lambda *a: replace(rescale(*a), noise_bound=0.0))
    code = run(["simulate", "--mode", "reset", "--tbs", "5", "--steps", "20",
                "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("simulation aborted: LEDGER_VIOLATION: at step 0: "
                          "noise ledger violated: error ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_simulate_refuses_a_poly_below_the_wrap_count(tmp_path, capsys):
    """A K = 1 poly on the demo scheme, which needs K = 2, exits 1 before
    the run starts, naming both wrap counts."""
    poly_path = tmp_path / "k1.json"
    save_poly(poly_path, fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=13)))
    code = run(["simulate", "--mode", "encrypted", "--poly", str(poly_path),
                "--steps", "300", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("simulation aborted: poly covers wrap counts up to K = 1, "
                          "but the scheme needs K >= 2")
    assert not (tmp_path / "simulation_result.json").exists()


def test_simulate_fir_rejects_non_fir_controller(tmp_path, capsys):
    """FIR mode on the bundled generic controller exits cleanly: the two
    controller states cannot hold a length-5 delay line."""
    code = run(["simulate", "--mode", "fir", "--fir-length", "5",
                "--steps", "50", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "simulation aborted" in capsys.readouterr().err
    assert not (tmp_path / "simulation_result.json").exists()


def test_analyze_fir_rejects_non_fir_controller(tmp_path, capsys):
    code = run(["analyze", "--mode", "fir", "--fir-length", "5",
                "--out-dir", str(tmp_path)])
    assert code == 1
    assert "analysis aborted" in capsys.readouterr().err


@pytest.mark.parametrize("args, prefix", [
    (["simulate", "--mode", "reset", "--tbs", "0"], "simulation aborted"),
    (["simulate", "--mode", "fir", "--fir-length", "-1"], "simulation aborted"),
    (["simulate", "--mode", "plaintext", "--steps", "-5"], "simulation aborted"),
    (["lift-check", "--tbs", "0"], "lift-check aborted"),
    (["lift-check", "--tbs", "3", "--trials", "0"],
     "lift-check aborted: trials must be at least 1"),
    (["lift-check", "--tbs", "3", "--trials", "-1"],
     "lift-check aborted: trials must be at least 1"),
    (["lift-check", "--tbs", "3", "--seed", "-1"],
     "lift-check aborted: seed must be at least 0, got -1"),
    (["simulate", "--mode", "plaintext", "--seed", "-1"],
     "simulation aborted: seed must be at least 0, got -1"),
    (["fit-poly", "--degree", "0", "--K", "1", "--epsilon", "0.5"],
     "fit aborted"),
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5",
      "--samples", "4"], "fit aborted"),
    (["analyze", "--mode", "fir", "--fir-length", "-2"],
     "analysis aborted: FIR length must be at least 1"),
    (["analyze", "--gamma", "inf"],
     "analysis aborted: gamma must be a finite real number, got inf"),
    (["analyze", "--gamma", "nan"],
     "analysis aborted: gamma must be a finite real number, got nan"),
    (["analyze", "--gamma", "0.2296", "--tol", "nan"],
     "analysis aborted: tol must be a finite real number, got nan"),
    (["analyze", "--gamma", "0.2296", "--tol", "inf"],
     "analysis aborted: tol must be a finite real number, got inf"),
    (["analyze", "--gamma", "0.2296", "--tol", "0"],
     "analysis aborted: tol must be finite and positive"),
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5", "--q", "inf"],
     "fit aborted: q must be a finite real number, got inf"),
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5", "--q", "nan"],
     "fit aborted: q must be a finite real number, got nan"),
], ids=["reset_tbs", "fir_length", "steps", "lift_tbs", "lift_trials_0",
        "lift_trials_-1", "lift_seed", "simulate_seed", "degree", "samples",
        "analyze_fir_length",
        "gamma_inf", "gamma_nan", "tol_nan", "tol_inf", "tol_0", "q_inf",
        "q_nan"])
def test_bad_parameter_is_an_exit_code(tmp_path, capsys, args, prefix):
    """An out-of-range or non-finite parameter value gives one line on
    stderr and exit 1, not a traceback or a RuntimeWarning (an error
    under pyproject.toml's filterwarnings)."""
    code = run(args + ["--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--system"), ("analyze", "--poly"),
    ("simulate", "--system"), ("simulate", "--scheme"),
    ("lift-check", "--system"),
])
@pytest.mark.parametrize("content", [None, "{}", "not json", "[1]", '"abc"', "3"],
                         ids=["missing", "no_fields", "not_json", "array",
                              "string", "number"])
def test_bad_input_file_is_an_exit_code(tmp_path, capsys, command, flag,
                                        content):
    """A missing, empty, unparsable or non-object input file gives one
    line on stderr and exit 2, not a traceback."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code = run([command, flag, str(path), "--tbs", "3",
                "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load {flag} {path}")
    assert err.count("\n") == 1
    if content == "{}":
        assert "missing fields" in err


@pytest.mark.parametrize("command", [
    ["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5"],
    ["analyze"], ["simulate"], ["lift-check", "--tbs", "3"],
], ids=["fit-poly", "analyze", "simulate", "lift-check"])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_unusable_output_directory_is_an_exit_code(tmp_path, monkeypatch, capsys,
                                                   command, source):
    """An output directory that is a file, or lies under one, given by
    --out-dir or BOOTCTRL_OUTPUT_DIR, gives one line naming it on stderr
    and exit 2, not a FileExistsError or NotADirectoryError traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    for path in (blocker, blocker / "sub"):
        if source == "flag":
            code = run(command + ["--out-dir", str(path)])
        else:
            monkeypatch.setenv("BOOTCTRL_OUTPUT_DIR", str(path))
            code = run(command)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot use output directory {path}: ")
        assert err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, name", [
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5", "--out"], "missing/x.json"),
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5", "--csv"], "missing/p.csv"),
    (["analyze", "--gamma", "0.2296", "--tbs", "3", "--out"], "missing/x.json"),
    (["simulate", "--mode", "plaintext", "--steps", "20", "--out"], "missing/x.json"),
], ids=["fit-poly", "fit-poly-csv", "analyze", "simulate"])
def test_unwritable_output_file_is_an_exit_code(tmp_path, capsys, command, name):
    """An output file in a directory that does not exist gives one line
    naming it on stderr and exit 2, not a FileNotFoundError traceback."""
    code = run(command + [name, "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {tmp_path / name}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, name", [
    (["simulate", "--mode", "plaintext", "--steps", "5", "--out"], "trajectory.csv"),
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5", "--csv"], "poly.json"),
    (["analyze", "--gamma", "0.2296", "--tbs", "3", "--report", "--out"],
     "analysis_report.md"),
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5", "--out"],
     "fit_poly_manifest.json"),
], ids=["simulate", "fit-poly-csv", "analyze-report", "manifest"])
def test_output_name_written_twice_is_an_exit_code(tmp_path, capsys, command, name):
    """An output name that a later file of the same command would reuse
    gives one line naming it on stderr and exit 2: the first file stays,
    and no manifest lists the name twice."""
    code = run(command + [name, "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"cannot write {tmp_path / name}: this command already wrote it\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert "command" not in json.loads((tmp_path / name).read_text())


def test_incompatible_system_file_is_an_exit_code(tmp_path, capsys, plant,
                                                  controller):
    """A system file whose controller expects 2 measurements from a plant
    that gives 1 gives one line on stderr and exit 2, not a traceback or a
    matvec shape error."""
    wide = replace(controller, Bc=np.hstack([controller.Bc] * 2),
                   Dc=np.hstack([controller.Dc] * 2))
    path = tmp_path / "sys.json"
    save_system(path, plant, wide)
    for command in (["lift-check", "--tbs", "3"], ["simulate", "--mode", "reset"]):
        code = run(command + ["--system", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load --system {path}: incompatible dimensions")
        assert err.count("\n") == 1


def test_poly_that_cannot_be_rescaled_is_an_exit_code(tmp_path, capsys,
                                                      fitted_poly):
    """A poly file whose spec.q is so small that its rescale to the scheme's
    q0 overflows gives one line naming --poly and exit 2, with no
    RuntimeWarning on the way."""
    data = poly_to_json(fitted_poly)
    data["spec"]["q"] = 1e-300
    del data["interval"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["simulate", "--mode", "encrypted", "--poly", str(path),
                    "--steps", "20", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load --poly {path}: "
                          "coefficients must be a finite real number, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, written", [
    (["fit-poly", "--degree", "9", "--K", "1", "--epsilon", "0.5",
      "--csv", "profile.csv"], ["poly.json", "profile.csv"]),
    (["analyze", "--gamma", "0.2296", "--tbs", "3", "--report"],
     ["analysis_report.json", "analysis_report.md"]),
    (["simulate", "--mode", "encrypted", "--poly", "POLY", "--steps", "50",
      "--report"], ["simulation_result.json", "trajectory.csv",
                    "refresh_events.csv", "simulation_report.md"]),
    (["lift-check", "--tbs", "3"], []),
], ids=["fit-poly", "analyze", "simulate", "lift-check"])
def test_manifest_lists_every_file_written(tmp_path, fitted_poly, argv, written):
    """The manifest's outputs are exactly the files the command wrote, in
    order, and the output directory holds nothing else but the manifest."""
    poly_path = tmp_path / "p.json"
    save_poly(poly_path, fitted_poly)
    argv = [str(poly_path) if a == "POLY" else a for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 0
    name = f"{argv[0].replace('-', '_')}_manifest.json"
    manifest = json.loads((out / name).read_text())
    assert manifest["output_dir"] == str(out)
    assert manifest["outputs"] == [str(out / f) for f in written]
    assert sorted(p.name for p in out.iterdir()) == sorted(written + [name])


# --------------------------------------------------------------------------
# lift-check


def test_lift_check_passes_on_example(tmp_path, capsys):
    code = run(["lift-check", "--tbs", "5", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "max relative deviation" in capsys.readouterr().out
    assert (tmp_path / "lift_check_manifest.json").exists()


def test_lift_check_custom_system(tmp_path, make_random_system):
    from bootctrl.statespace import save_system

    rng = np.random.default_rng(12)
    plant, controller = make_random_system(rng)
    sys_path = tmp_path / "sys.json"
    save_system(sys_path, plant, controller)
    code = run(["lift-check", "--system", str(sys_path), "--tbs", "7",
                "--trials", "10", "--out-dir", str(tmp_path)])
    assert code == 0


def test_lift_check_reports_a_deviation(tmp_path, capsys, monkeypatch):
    """A lift whose state matrix is off by 1e-6 is caught: exit 1."""
    real = cli.lift

    def perturbed(cl, T):
        lifted = real(cl, T)
        return replace(lifted, Acl=lifted.Acl * (1 + 1e-6))

    monkeypatch.setattr(cli, "lift", perturbed)
    code = run(["lift-check", "--tbs", "5", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("max relative deviation between lifted map and "
                                   "5-step recursion over 20 trials: ")
    assert captured.err == "deviation exceeds 1e-9\n"


# --------------------------------------------------------------------------
# environment


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BOOTCTRL_OUTPUT_DIR", str(tmp_path / "env_out"))
    code = run(["lift-check", "--tbs", "3"])
    assert code == 0
    assert (tmp_path / "env_out" / "lift_check_manifest.json").exists()
