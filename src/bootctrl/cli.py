"""Command-line front end: fitting, certification, simulation, lift check.

Exit-code discipline: 0 means the command ran and produced a verdict
(including NOT_CERTIFIED); nonzero means tool or input failure (2 for an
unreadable or malformed --system, --scheme or --poly file).  The one
quantitative exception is `lift-check`, whose job is the check itself:
a deviation above threshold exits nonzero.

Every command writes a manifest JSON next to its outputs recording the
resolved parameters, so a run can be reproduced exactly.  The default
output directory is the BOOTCTRL_OUTPUT_DIR environment variable, or the
working directory if unset.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import THEOREM_1, THEOREM_2, analyze_l2_gain
from .bootpoly import (BootstrapSpec, FitError, centered_mod, evaluate, fit,
                       load_poly, save_poly)
from .crypto_sim import SchemeError, load_scheme
from .fixtures import demo_scheme_path, demo_system_path
from .simulator import SimulationConfig, run_closed_loop
from .statespace import interconnect, lift, load_system, simulate

__all__ = ["main"]


def _out_dir(args) -> Path:
    raw = args.out_dir or os.environ.get("BOOTCTRL_OUTPUT_DIR") or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir: Path, command: str, args, outputs):
    params = {
        k: v for k, v in vars(args).items() if k != "func" and not callable(v)
    }
    manifest = {
        "command": command,
        "parameters": params,
        "output_dir": str(out_dir),
        "outputs": [str(p) for p in outputs],
    }
    path = out_dir / f"{command.replace('-', '_')}_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    return path


class _InputError(Exception):
    """An input file that cannot be read or parsed; main exits with 2."""


def _load(loader, flag, path):
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot load {flag} {path}: {exc}") from exc


def _load_demo_system():
    with demo_system_path() as path:
        return load_system(path)


def _resolve_system(args):
    if args.system:
        return _load(load_system, "--system", args.system)
    return _load_demo_system()


def cmd_fit_poly(args) -> int:
    out_dir = _out_dir(args)
    try:
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
    out_path = out_dir / args.out
    save_poly(out_path, poly)
    outputs = [out_path]
    if args.csv:
        csv_path = out_dir / args.csv
        grid = np.linspace(-poly.spec.half_range, poly.spec.half_range, 4001)
        pm = evaluate(poly, grid)
        target = centered_mod(grid, poly.spec.q)
        rel = np.full_like(grid, np.nan)
        np.divide(np.abs(pm - target), np.abs(target), out=rel, where=target != 0)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "p_of_m", "m_mod_q", "relative_error"])
            # Python floats, which csv writes by repr: round-trip text
            writer.writerows(zip(grid.tolist(), pm.tolist(), target.tolist(),
                                 rel.tolist()))
        outputs.append(csv_path)
    outputs.append(_write_manifest(out_dir, "fit-poly", args, outputs))
    usable = "usable" if poly.usable else "NOT usable (gamma >= 1)"
    print(f"gamma_certified = {poly.gamma_certified:.6f} ({usable}), "
          f"verified on {poly.verification_samples} samples")
    print(f"wrote {out_path}")
    return 0


def cmd_analyze(args) -> int:
    out_dir = _out_dir(args)
    plant, controller = _resolve_system(args)
    # reset and fir mode fix their own slope inside analyze_l2_gain
    gamma = args.gamma
    if args.poly:
        gamma = _load(load_poly, "--poly", args.poly).gamma_certified
    elif gamma is None and args.mode == "bootstrap":
        print("analyze needs --gamma or --poly for bootstrap mode",
              file=sys.stderr)
        return 2
    if args.mode == "fir" and not args.fir_length:
        print("analyze --mode fir needs --fir-length", file=sys.stderr)
        return 2
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
    out_path = out_dir / args.out
    with open(out_path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
    outputs = [out_path]

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
        md_path = out_dir / "analysis_report.md"
        md_path.write_text("\n".join(lines) + "\n")
        outputs.append(md_path)
        print("\n".join(lines))
    outputs.append(_write_manifest(out_dir, "analyze", args, outputs))
    return 0


def _report_row(label, report):
    gain = f"{report.gain:.4f}" if report.gain is not None else "none"
    return (f"| {label} | {report.T_BS} | {report.gamma_sector:.4f} | "
            f"{gain} ({report.verdict}) |")


def cmd_simulate(args) -> int:
    out_dir = _out_dir(args)
    plant, controller = _resolve_system(args)
    if args.scheme:
        scheme = _load(load_scheme, "--scheme", args.scheme)
    else:
        with demo_scheme_path() as path:
            scheme = load_scheme(path)
    poly = None
    if args.mode == "encrypted":
        if not args.poly:
            print("simulate --mode encrypted needs --poly", file=sys.stderr)
            return 2
        poly = _load(load_poly, "--poly", args.poly)
        if abs(poly.spec.q - scheme.q0) > 1e-9 * scheme.q0:
            poly = poly.rescaled(float(scheme.q0))
    if args.mode == "fir" and not args.fir_length:
        print("simulate --mode fir needs --fir-length", file=sys.stderr)
        return 2
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

    result = {
        "mode": res.mode,
        "steps": args.steps,
        "T_BS": args.tbs,
        "seed": args.seed,
        "empirical_gain": res.empirical_gain,
        "refresh_events": len(res.events),
        "violations": res.violations,
        "max_fidelity_ratio": res.max_fidelity_ratio,
    }
    out_path = out_dir / args.out
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    outputs = [out_path]

    traj_path = out_dir / "trajectory.csv"
    n, nc = plant.n, controller.nc
    with open(traj_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"xc{i}" for i in range(nc)]
            + [f"u{i}" for i in range(res.u.shape[1])]
            + [f"y{i}" for i in range(res.y.shape[1])]
        )
        for t in range(args.steps):
            writer.writerow(
                [t] + list(res.x_plant[t]) + list(res.x_c[t])
                + list(res.u[t]) + list(res.y[t])
            )
    outputs.append(traj_path)

    if res.events:
        ev_path = out_dir / "refresh_events.csv"
        with open(ev_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "r", "m_plus_e", "output", "poly_error",
                             "relative_error", "violation"])
            for ev in res.events:
                writer.writerow([ev.step, ev.r, ev.m_plus_e, ev.output,
                                 ev.poly_error, ev.relative_error,
                                 int(ev.violation)])
        outputs.append(ev_path)

    print(res.summary())
    if args.report:
        md = [
            "| quantity | value |",
            "|----------|-------|",
            f"| empirical l2 ratio | {res.empirical_gain:.4f} |",
            f"| refresh events | {len(res.events)} |",
            f"| sector violations | {res.violations} |",
        ]
        md_path = out_dir / "simulation_report.md"
        md_path.write_text("\n".join(md) + "\n")
        outputs.append(md_path)
        print("\n".join(md))
    outputs.append(_write_manifest(out_dir, "simulate", args, outputs))
    return 0


def cmd_lift_check(args) -> int:
    out_dir = _out_dir(args)
    plant, controller = _resolve_system(args)
    cl = interconnect(plant, controller)
    if args.trials < 1:
        print("lift-check aborted: trials must be at least 1", file=sys.stderr)
        return 1
    try:
        lifted = lift(cl, args.tbs)
    except ValueError as exc:
        print(f"lift-check aborted: {exc}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        x0 = rng.standard_normal(cl.n_xi)
        w_p = rng.standard_normal((args.tbs, cl.m_wp))
        w_u = np.zeros((args.tbs, cl.n_wu))
        w_u[0] = rng.standard_normal(cl.n_wu)
        xi, z_p, z_u = simulate(cl, x0, w_p, w_u, steps=args.tbs)
        wtil = w_p.reshape(-1)
        xi_T = lifted.Acl @ x0 + lifted.Bp @ wtil + lifted.Bu @ w_u[0]
        ztil = lifted.Cp @ x0 + lifted.Dpp @ wtil + lifted.Dpu @ w_u[0]
        zu = lifted.Cu @ x0 + lifted.Dup @ wtil + lifted.Duu @ w_u[0]
        scale = max(1.0, np.abs(xi).max(), np.abs(z_p).max())
        worst = max(
            worst,
            np.abs(xi_T - xi[args.tbs]).max() / scale,
            np.abs(ztil - z_p.reshape(-1)).max() / scale,
            np.abs(zu - z_u[0]).max() / scale,
        )
    print(f"max relative deviation between lifted map and {args.tbs}-step "
          f"recursion over {args.trials} trials: {worst:.3e}")
    _write_manifest(out_dir, "lift-check", args, [])
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
    p_fit.add_argument("--K", type=int, required=True)
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
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
