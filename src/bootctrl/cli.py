"""Command-line front end: fitting, certification, simulation, lift check.

Exit-code discipline: 0 means the command ran and produced a verdict
(including NOT_CERTIFIED); nonzero means tool or input failure (2 for a
missing required flag, fit-poly with both or neither of --K and --scheme,
--gamma together with --poly, an unreadable or malformed --system,
--scheme or --poly file, an analyze --poly whose slope is 1 or more, a
--system file whose plant and controller cannot be closed into one loop,
or an output that cannot be written).  The one quantitative exception is
`lift-check`, whose job is the check itself: a deviation above threshold
exits nonzero.

Every command writes a manifest JSON next to its outputs recording the
resolved parameters and every file written, so a run can be reproduced
exactly.  The default
output directory is the BOOTCTRL_OUTPUT_DIR environment variable, or the
working directory if unset.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import THEOREM_1, THEOREM_2, analyze_l2_gain, sector_from_bootstrap
from .bootpoly import (BootstrapSpec, FitError, centered_mod, evaluate, fit,
                       load_poly, poly_to_json)
from .crypto_sim import SchemeError, load_scheme, required_offset_range
from .fixtures import demo_scheme, demo_system
from .simulator import SimulationConfig, run_closed_loop
from .statespace import (check_count, interconnect, lift, load_system, simulate,
                         write_json)

__all__ = ["main"]


class _InputError(Exception):
    """An input file that cannot be read or parsed, a missing required
    flag, an output directory that cannot be made or an output file that
    cannot be written or was already written; main exits with 2."""


class _Output:
    """One command's output directory: made on construction, every file
    written through one error path and listed in the manifest, and no
    path written twice."""

    def __init__(self, args):
        self.args = args
        self.dir = Path(args.out_dir or os.environ.get("BOOTCTRL_OUTPUT_DIR") or ".")
        self.paths = []
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _InputError(f"cannot use output directory {self.dir}: {exc}") from exc

    def _write(self, name, write):
        path = self.dir / name
        if path in self.paths:
            raise _InputError(f"cannot write {path}: this command already wrote it")
        try:
            write(path)
        except OSError as exc:
            raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        self.paths.append(path)
        return path

    def json(self, name, data):
        return self._write(name, lambda path: write_json(path, data))

    def csv(self, name, header, rows):
        def write(path):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        return self._write(name, write)

    def markdown(self, name, lines):
        return self._write(name, lambda path: path.write_text("\n".join(lines) + "\n"))

    def manifest(self):
        """Write <command>_manifest.json: the resolved parameters and every
        file written before it."""
        command = self.args.command
        params = {k: v for k, v in vars(self.args).items()
                  if k != "func" and not callable(v)}
        self.json(f"{command.replace('-', '_')}_manifest.json", {
            "command": command,
            "parameters": params,
            "output_dir": str(self.dir),
            "outputs": [str(p) for p in self.paths],
        })


def _load(loader, flag, path):
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot load {flag} {path}: {exc}") from exc


def _resolve_system(args):
    if args.system:
        return _load(load_system, "--system", args.system)
    return demo_system()


def cmd_fit_poly(args, out) -> int:
    try:
        if args.scheme:
            # the manifest records the K that the scheme's wrap bound gives
            scheme = _load(load_scheme, "--scheme", args.scheme)
            args.K = required_offset_range(scheme, args.epsilon)
        poly = fit(BootstrapSpec(q=args.q, epsilon=args.epsilon, K=args.K,
                                 d=args.degree),
                   samples_per_interval=args.samples)
    except FitError as exc:
        print(f"fit failed: {exc} (best gamma {exc.best_gamma:.6f})",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"fit aborted: {exc}", file=sys.stderr)
        return 1
    out_path = out.json(args.out, poly_to_json(poly))
    if args.csv:
        grid = np.linspace(-poly.spec.half_range, poly.spec.half_range, 4001)
        pm = evaluate(poly, grid)
        target = centered_mod(grid, poly.spec.q)
        rel = np.full_like(grid, np.nan)
        np.divide(np.abs(pm - target), np.abs(target), out=rel, where=target != 0)
        # Python floats, which csv writes by repr: round-trip text
        out.csv(args.csv, ["m", "p_of_m", "m_mod_q", "relative_error"],
                zip(grid.tolist(), pm.tolist(), target.tolist(), rel.tolist()))
    out.manifest()
    # fit raises FitError rather than return a poly with gamma >= 1
    print(f"gamma_certified = {poly.gamma_certified:.6f} (usable), "
          f"proven on {poly.verification_samples} Chebyshev nodes")
    print(f"wrote {out_path}")
    return 0


def cmd_analyze(args, out) -> int:
    plant, controller = _resolve_system(args)
    # reset and fir mode fix their own slope inside analyze_l2_gain
    gamma = args.gamma
    if args.poly and gamma is not None:
        raise _InputError("analyze takes the sector slope from --gamma or --poly, not both")
    if args.poly:
        poly = _load(load_poly, "--poly", args.poly)
        try:
            sector_from_bootstrap(poly, 1)  # refuses a slope of 1 or more
        except ValueError as exc:
            raise _InputError(f"unusable --poly {args.poly}: {exc}") from exc
        gamma = poly.gamma_certified
    elif gamma is None and args.mode == "bootstrap":
        raise _InputError("analyze needs --gamma or --poly for bootstrap mode")
    if args.mode == "fir" and not args.fir_length:
        raise _InputError("analyze --mode fir needs --fir-length")
    method = THEOREM_2 if args.theorem == 2 else THEOREM_1
    try:
        report = analyze_l2_gain(
            plant, controller, gamma, method=method, T_BS=args.tbs,
            mode=args.mode, fir_length=args.fir_length, tol=args.tol,
        )
        if args.report:
            # the direct-test row; reuse the main run when it was that test
            rep1 = report if report.method == THEOREM_1 else analyze_l2_gain(
                plant, controller, gamma, method=THEOREM_1, mode=args.mode,
                fir_length=args.fir_length, tol=args.tol)
    except (ValueError, RuntimeError) as exc:
        print(f"analysis aborted: {exc}", file=sys.stderr)
        return 1
    out.json(args.out, report.to_json())

    slope = f"sector slope {report.gamma_sector:.4f}"
    if report.verdict == "CERTIFIED":
        print(f"CERTIFIED: l2-gain <= {report.gain:.4f} "
              f"({report.method}, T_BS={report.T_BS}, {slope})")
    else:
        print(f"NOT_CERTIFIED ({report.method}, T_BS={report.T_BS}, {slope})")

    if args.report:
        lines = [
            "| test | T_BS | sector slope | certified l2-gain |",
            "|------|------|--------------|-------------------|",
            _report_row("direct", rep1),
        ]
        if report.method == THEOREM_2 and report.T_BS > 1:
            lines.append(_report_row("lifted", report))
        out.markdown("analysis_report.md", lines)
        print("\n".join(lines))
    out.manifest()
    return 0


def _report_row(label, report):
    gain = f"{report.gain:.4f}" if report.gain is not None else "none"
    return (f"| {label} | {report.T_BS} | {report.gamma_sector:.4f} | "
            f"{gain} ({report.verdict}) |")


def cmd_simulate(args, out) -> int:
    plant, controller = _resolve_system(args)
    scheme = _load(load_scheme, "--scheme", args.scheme) if args.scheme else demo_scheme()
    poly = None
    if args.mode == "encrypted":
        if not args.poly:
            raise _InputError("simulate --mode encrypted needs --poly")
        poly = _load(lambda path: load_poly(path).rescaled(float(scheme.q0)),
                     "--poly", args.poly)
    if args.mode == "fir" and not args.fir_length:
        raise _InputError("simulate --mode fir needs --fir-length")
    try:
        config = SimulationConfig(
            mode=args.mode.upper() if args.mode != "plaintext" else "PLAINTEXT_REFERENCE",
            steps=args.steps,
            T_BS=args.tbs,
            fir_length=args.fir_length or 0,
            seed=args.seed,
        )
        rng = np.random.default_rng(args.seed)
        w_p1 = rng.standard_normal((args.steps, plant.m_w1))
        res = run_closed_loop(plant, controller, config, scheme=scheme,
                              poly=poly, w_p1=w_p1)
    except (SchemeError, ValueError) as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 1

    out.json(args.out, {
        "mode": res.mode,
        "steps": args.steps,
        "T_BS": args.tbs,
        "seed": args.seed,
        "empirical_gain": res.empirical_gain,
        "refresh_events": len(res.events),
        "violations": res.violations,
        "max_fidelity_ratio": res.max_fidelity_ratio,
    })
    out.csv("trajectory.csv",
            ["t"] + [f"x{i}" for i in range(plant.n)]
            + [f"xc{i}" for i in range(controller.nc)]
            + [f"u{i}" for i in range(res.u.shape[1])]
            + [f"y{i}" for i in range(res.y.shape[1])],
            ([t, *res.x_plant[t], *res.x_c[t], *res.u[t], *res.y[t]]
             for t in range(args.steps)))
    if res.events:
        out.csv("refresh_events.csv",
                ["step", "r", "m_plus_e", "output", "poly_error",
                 "relative_error", "violation"],
                ([ev.step, ev.r, ev.m_plus_e, ev.output, ev.poly_error,
                  ev.relative_error, int(ev.violation)] for ev in res.events))

    print(res.summary())
    if args.report:
        md = [
            "| quantity | value |",
            "|----------|-------|",
            f"| empirical l2 ratio | {res.empirical_gain:.4f} |",
            f"| refresh events | {len(res.events)} |",
            f"| sector violations | {res.violations} |",
        ]
        out.markdown("simulation_report.md", md)
        print("\n".join(md))
    out.manifest()
    return 0


def cmd_lift_check(args, out) -> int:
    plant, controller = _resolve_system(args)
    cl = interconnect(plant, controller)
    try:
        trials = check_count(args.trials, "trials", 1)
        rng = np.random.default_rng(check_count(args.seed, "seed", 0))
        lifted = lift(cl, args.tbs)
    except ValueError as exc:
        print(f"lift-check aborted: {exc}", file=sys.stderr)
        return 1
    worst = 0.0
    for _ in range(trials):
        x0 = rng.standard_normal(cl.n_xi)
        w_p = rng.standard_normal((args.tbs, cl.m_wp))
        w_u = np.zeros((args.tbs, cl.n_wu))
        w_u[0] = rng.standard_normal(cl.n_wu)
        xi, z_p, z_u = simulate(cl, x0, w_p, w_u, steps=args.tbs)
        # one step of the lifted loop
        xi_T, ztil, zu = simulate(lifted, x0, w_p.reshape(1, -1), w_u[:1], 1)
        scale = max(1.0, np.abs(xi).max(), np.abs(z_p).max())
        worst = max(
            worst,
            np.abs(xi_T[1] - xi[args.tbs]).max() / scale,
            np.abs(ztil[0] - z_p.reshape(-1)).max() / scale,
            np.abs(zu[0] - z_u[0]).max() / scale,
        )
    print(f"max relative deviation between lifted map and {args.tbs}-step "
          f"recursion over {args.trials} trials: {worst:.3e}")
    out.manifest()
    if worst > 1e-9:
        print("deviation exceeds 1e-9", file=sys.stderr)
        return 1
    return 0


def _add_common(sub):
    sub.add_argument("--out-dir", default=None,
                     help="output directory (default: $BOOTCTRL_OUTPUT_DIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootctrl",
        description="Refresh-polynomial design, closed-loop certification, "
                    "and encrypted-loop simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit-poly", help="fit a refresh polynomial")
    p_fit.add_argument("--degree", type=int, required=True)
    wraps = p_fit.add_mutually_exclusive_group(required=True)
    wraps.add_argument("--K", type=int, help="largest wrap offset")
    wraps.add_argument("--scheme", default=None,
                       help="scheme JSON whose wrap bound sets K "
                            "(crypto_sim.required_offset_range)")
    p_fit.add_argument("--epsilon", type=float, required=True)
    p_fit.add_argument("--q", type=float, default=1.0)
    p_fit.add_argument("--samples", type=int, default=512,
                       help="discretization nodes per offset interval")
    p_fit.add_argument("--out", default="poly.json")
    p_fit.add_argument("--csv", default=None,
                       help="also write an error-profile CSV to this name")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit_poly)

    p_an = subs.add_parser("analyze", help="certify a closed-loop l2-gain")
    p_an.add_argument("--system", default=None,
                      help="system JSON (default: bundled example)")
    p_an.add_argument("--gamma", type=float, default=None,
                      help="sector slope of the refresh error")
    p_an.add_argument("--poly", default=None,
                      help="take the sector slope from this poly JSON")
    p_an.add_argument("--theorem", type=int, choices=(1, 2), default=2)
    p_an.add_argument("--tbs", type=int, default=10,
                      help="refresh period for the lifted test")
    p_an.add_argument("--mode", choices=("bootstrap", "reset", "fir"),
                      default="bootstrap")
    p_an.add_argument("--fir-length", type=int, default=None)
    p_an.add_argument("--tol", type=float, default=1e-3,
                      help="tolerance on the certified gain")
    p_an.add_argument("--out", default="analysis_report.json")
    p_an.add_argument("--report", action="store_true",
                      help="also emit a Markdown summary table")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sim = subs.add_parser("simulate", help="run the encrypted closed loop")
    p_sim.add_argument("--system", default=None)
    p_sim.add_argument("--scheme", default=None,
                       help="scheme JSON (default: bundled example)")
    p_sim.add_argument("--poly", default=None)
    p_sim.add_argument("--mode", choices=("encrypted", "reset", "fir", "plaintext"),
                       default="encrypted")
    p_sim.add_argument("--tbs", type=int, default=10)
    p_sim.add_argument("--steps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--fir-length", type=int, default=0)
    p_sim.add_argument("--out", default="simulation_result.json")
    p_sim.add_argument("--report", action="store_true")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_lift = subs.add_parser("lift-check",
                             help="verify the lifted model against the recursion")
    p_lift.add_argument("--system", default=None)
    p_lift.add_argument("--tbs", type=int, required=True)
    p_lift.add_argument("--trials", type=int, default=20)
    p_lift.add_argument("--seed", type=int, default=0)
    _add_common(p_lift)
    p_lift.set_defaults(func=cmd_lift_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _Output(args))
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
