"""The benchmark's three workloads: set-up, one timed pass, output checks.

Each workload drives the unmodified package the way a researcher does:
one caller, one call at a time (a closed loop with concurrency 1).  A
pass is the workload's timed unit of work and repeats identically, so
the counts recorded in a traced pass repeat exactly for a given seed.
Checks run after the timed passes, on the values the stage calls
returned, and each failed check counts one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from bootctrl import analysis, bootpoly, cli, simulator
from bootctrl.analysis import (
    CERTIFIED,
    THEOREM_1,
    THEOREM_2,
    SectorBound,
    build_theorem2,
    fir_closed_loop,
    l2_gain_index,
    make_fir_controller,
)
from bootctrl.bootpoly import BootstrapSpec
from bootctrl.fixtures import (
    REFERENCE_SECTOR_SLOPE,
    default_bootstrap_spec,
    demo_scheme,
    demo_system,
)
from bootctrl.simulator import ENCRYPTED, FIR, PLAINTEXT_REFERENCE, SimulationConfig
from bootctrl.statespace import interconnect

DELTA = 1e-7  # analyze_l2_gain's default certificate margin
GAIN_TOL = 1e-3  # analyze_l2_gain's default bisection tolerance


def eigvalsh_margin(cl, report, gamma):
    """Certificate margin re-derived with numpy.linalg.eigvalsh.

    Rebuilds the LMI the report certified (the lifted test with the
    report's T_BS, which is 1 for the direct test) and substitutes the
    returned (X, tau); shares no eigenvalue code with sdp.check_certificate.
    """
    perf = l2_gain_index(cl.m_wp, cl.p_z, report.gain ** 2)
    problem = build_theorem2(cl, perf, SectorBound.symmetric(gamma, cl.n_zu),
                             report.T_BS)
    v = problem.pack(report.certificate.X, report.certificate.tau)
    margin = np.inf
    for con in problem.constraints:
        eigs = np.linalg.eigvalsh(con.evaluate(v))
        margin = min(margin, eigs[0] if con.sense == "pos" else -eigs[-1])
    return float(margin)


class Certify:
    """`bootctrl analyze` in-process on the bundled loop: the analysis-heavy workload."""

    name = "certify"
    # lifted test at T_BS=10 plus the direct test (--report), then T_BS=20
    ARGV = (
        ["analyze", "--gamma", "0.2296", "--theorem", "2", "--tbs", "10", "--report"],
        ["analyze", "--gamma", "0.2296", "--theorem", "2", "--tbs", "20"],
    )
    DIRECT_GAIN = 5.13
    LIFTED_GAIN = 3.97
    GAIN_WINDOW = 0.10
    ops_per_pass = 3  # analyze_l2_gain calls

    def __init__(self, seed, out_dir: Path):
        # The inputs are the bundled loop and the fixed arguments above;
        # the seed is recorded but does not change them.
        self.seed = seed
        self.out_dir = out_dir
        self.passes = 0

    def setup(self):
        self.cl = interconnect(*demo_system())
        # warm-up: one coarse direct analysis through the same CLI path
        self._main(["analyze", "--gamma", "0.2296", "--theorem", "1",
                    "--tol", "10"], "warmup")

    def _main(self, argv, tag):
        out = self.out_dir / tag
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"bootctrl {' '.join(argv)} exited with {code}")
        return out

    def run_pass(self):
        self.passes += 1
        return [self._main(argv, f"pass{self.passes}-{k}")
                for k, argv in enumerate(self.ARGV)]

    def check(self, rec, out_dirs):
        """Failures among this pass's analyses."""
        reports = rec.stage_result("analysis.analyze_l2_gain")
        if len(reports) != self.ops_per_pass:
            return self.ops_per_pass
        lifted10, direct, lifted20 = reports

        def certified(report, method, T_BS):
            return (report.verdict == CERTIFIED and report.method == method
                    and report.T_BS == T_BS
                    and eigvalsh_margin(self.cl, report, REFERENCE_SECTOR_SLOPE)
                    >= DELTA)

        def written_gain(out):
            """The gain in the JSON report the CLI call wrote."""
            return json.loads((out / "analysis_report.json").read_text())["gain"]

        ok = (
            certified(lifted10, THEOREM_2, 10)
            and abs(lifted10.gain - self.LIFTED_GAIN) <= self.GAIN_WINDOW
            and written_gain(out_dirs[0]) == lifted10.gain,
            certified(direct, THEOREM_1, 1)
            and abs(direct.gain - self.DIRECT_GAIN) <= self.GAIN_WINDOW,
            certified(lifted20, THEOREM_2, 20)
            and lifted10.verdict == CERTIFIED
            and lifted20.gain <= lifted10.gain + GAIN_TOL
            and written_gain(out_dirs[1]) == lifted20.gain,
        )
        return self.ops_per_pass - sum(ok)


class EncryptedStudy:
    """estimate_empirical_gain in ENCRYPTED mode: the crypto-heavy workload."""

    name = "encrypted_study"
    T_BS = 10

    def __init__(self, seed, out_dir: Path, steps=1000, n_random=3):
        self.seed = seed
        self.steps = steps
        self.n_random = n_random
        self.ops_per_pass = n_random + 1  # closed-loop runs, aligned one included
        self._certified = None

    def setup(self):
        self.plant, self.controller = demo_system()
        self.scheme = demo_scheme()
        # users fit once and reuse poly.json, so the fit is set-up
        self.poly_unit = bootpoly.fit(default_bootstrap_spec())
        self.poly = self.poly_unit.rescaled(float(self.scheme.q0))
        # warm-up: a short run with refreshes and a short aligned search
        simulator.run_closed_loop(
            self.plant, self.controller,
            SimulationConfig(mode=ENCRYPTED, steps=3 * self.T_BS, T_BS=self.T_BS),
            scheme=self.scheme, poly=self.poly)
        simulator.aligned_disturbance(interconnect(self.plant, self.controller),
                                      3 * self.T_BS, iterations=2)

    def run_pass(self):
        config = SimulationConfig(mode=ENCRYPTED, steps=self.steps, T_BS=self.T_BS)
        return simulator.estimate_empirical_gain(
            self.plant, self.controller, config, scheme=self.scheme,
            poly=self.poly, n_random=self.n_random, base_seed=self.seed)

    def certified_gain(self):
        """Lifted T_BS=10 gain at the fitted slope, computed once, untimed."""
        if self._certified is None:
            report = analysis.analyze_l2_gain(
                self.plant, self.controller, self.poly_unit.gamma_certified,
                method=THEOREM_2, T_BS=self.T_BS)
            self._certified = report.gain if report.verdict == CERTIFIED else -np.inf
        return self._certified

    def check(self, rec, study):
        runs = rec.stage_result("simulator.run_closed_loop")
        if len(runs) != self.ops_per_pass:
            return self.ops_per_pass
        bound = self.certified_gain()
        failed = sum(
            not (res.violations == 0 and res.max_fidelity_ratio <= 1.0
                 and res.empirical_gain <= bound)
            for res in runs)
        if not (study.total_violations == 0 and study.max_fidelity_ratio <= 1.0
                and study.max_gain <= bound):
            failed = max(failed, 1)
        return failed


# gamma_certified of every grid fit at the seed commit
SEED_GAMMAS = {
    (15, 1): 0.05192598627385815,
    (15, 2): 0.24618876070955756,
    (15, 3): 0.9720028020865912,
    (25, 1): 0.0034553923884741516,
    (25, 2): 0.09146705920785109,
    (25, 3): 0.22288839303006092,
    (35, 1): 0.0004360084226318828,
    (35, 2): 0.028029921860042994,
    (35, 3): 0.1611274432102582,
    (45, 1): 3.64250873898633e-05,
    (45, 2): 0.004281873650962272,
    (45, 3): 0.031134802638649373,
}
# the LP stops at 1e-9; a fit "matches" within that plus 1e-6 relative
GAMMA_ABS_TOL = 1e-8
GAMMA_REL_TOL = 1e-6


class DesignSweep:
    """Fit grid, FIR certification and encrypted FIR runs: the same layers used differently."""

    name = "design_sweep"
    FIR_LAM = 0.45
    FIR_GAIN = [[-0.3]]

    def __init__(self, seed, out_dir: Path, grid=tuple(SEED_GAMMAS),
                 fir_lengths=(5, 8), fir_steps=3000):
        self.seed = seed
        self.grid = grid
        self.fir_lengths = fir_lengths
        self.fir_steps = fir_steps
        self.ops_per_pass = len(grid) + 2 * len(fir_lengths)
        self._references = {}

    def setup(self):
        self.plant, _ = demo_system()
        self.scheme = demo_scheme()
        rng = np.random.default_rng(self.seed)
        self.fir = {N: make_fir_controller(N, self.FIR_LAM, self.FIR_GAIN)
                    for N in self.fir_lengths}
        self.w1 = {N: rng.standard_normal((self.fir_steps, self.plant.m_w1))
                   for N in self.fir_lengths}
        # warm-up: the smallest fit, a coarse FIR analysis, a short FIR run
        N = self.fir_lengths[0]
        bootpoly.fit(BootstrapSpec(q=1.0, epsilon=0.5, K=1, d=15))
        analysis.analyze_l2_gain(self.plant, self.fir[N], 1.0, mode="fir",
                                 fir_length=N, tol=10.0)
        simulator.run_closed_loop(
            self.plant, self.fir[N],
            SimulationConfig(mode=FIR, steps=20, fir_length=N),
            scheme=self.scheme)

    def _config(self, mode, N):
        return SimulationConfig(mode=mode, steps=self.fir_steps, fir_length=N,
                                seed=self.seed)

    def run_pass(self):
        for d, K in self.grid:
            bootpoly.fit(BootstrapSpec(q=1.0, epsilon=0.5, K=K, d=d))
        for N in self.fir_lengths:
            analysis.analyze_l2_gain(self.plant, self.fir[N], 1.0, mode="fir",
                                     fir_length=N)
        for N in self.fir_lengths:
            simulator.run_closed_loop(self.plant, self.fir[N],
                                      self._config(FIR, N), scheme=self.scheme,
                                      w_p1=self.w1[N])

    def reference(self, N):
        """PLAINTEXT_REFERENCE run of the same FIR loop, computed once, untimed."""
        if N not in self._references:
            self._references[N] = simulator.run_closed_loop(
                self.plant, self.fir[N], self._config(PLAINTEXT_REFERENCE, N),
                w_p1=self.w1[N])
        return self._references[N]

    def check(self, rec, _output):
        polys = rec.stage_result("bootpoly.fit")
        reports = rec.stage_result("analysis.analyze_l2_gain")
        runs = rec.stage_result("simulator.run_closed_loop")
        if (len(polys), len(reports), len(runs)) != (
                len(self.grid), len(self.fir_lengths), len(self.fir_lengths)):
            return self.ops_per_pass
        failed = 0
        for (d, K), poly in zip(self.grid, polys):
            ref = SEED_GAMMAS[(d, K)]
            failed += not (
                (poly.spec.d, poly.spec.K) == (d, K) and poly.gamma_certified < 1.0
                and abs(poly.gamma_certified - ref)
                <= GAMMA_REL_TOL * ref + GAMMA_ABS_TOL)
        for N, report in zip(self.fir_lengths, reports):
            cl = fir_closed_loop(self.plant, self.fir[N], N)
            failed += not (report.verdict == CERTIFIED
                           and eigvalsh_margin(cl, report, 1.0) >= DELTA)
        for N, res in zip(self.fir_lengths, runs):
            ref = self.reference(N)
            failed += not (np.abs(res.u - ref.u).max() <= 1e-3
                           and np.abs(res.z_p - ref.z_p).max() <= 1e-3
                           and res.max_fidelity_ratio <= 1.0)
        return failed


WORKLOADS = {cls.name: cls for cls in (Certify, EncryptedStudy, DesignSweep)}
