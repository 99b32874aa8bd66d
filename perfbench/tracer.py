"""In-memory span recorder around the public functions of bootctrl's modules.

A `Recorder` replaces each traced function on the module attribute its
callers look it up under (``analysis`` imports ``bisect_gain`` and ``lift``
by name, ``cli`` imports ``analyze_l2_gain`` by name, ``simulator`` calls
``cs.<op>``), records one span per call and puts the originals back when
its ``installed()`` block ends.  A span is (name, start, end, parent); the
four fields live in flat arrays so that a pass with a few hundred thousand
crypto operations stays small.  A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so
children never overlap.

Observers read counts off return values at the same boundaries (LP
iterations, Newton steps, refresh events, ...) so that ratios are measured
where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from bootctrl import (
    analysis,
    bootpoly,
    cli,
    crypto_sim,
    lp,
    sdp,
    simulator,
    statespace,
)

ROOT_SPAN = "bench.pass"

CRYPTO_OPS = ("encrypt", "matvec", "add", "rescale", "bootstrap_emulated",
              "decrypt", "fidelity_error")

# span name -> every (module, attribute) a caller in the package resolves
# the function through at call time
LAYER_TARGETS = {
    "cli.main": [(cli, "main")],
    "analysis.analyze_l2_gain": [(cli, "analyze_l2_gain"),
                                 (analysis, "analyze_l2_gain")],
    "analysis.build_theorem2": [(analysis, "build_theorem2")],
    "statespace.lift": [(analysis, "lift"), (cli, "lift"), (statespace, "lift")],
    "sdp.bisect_gain": [(analysis, "bisect_gain"), (sdp, "bisect_gain")],
    "sdp.solve_feasibility": [(sdp, "solve_feasibility")],
    "sdp.check_certificate": [(sdp, "check_certificate")],
    "sdp.jacobi_eigvals": [(sdp, "jacobi_eigvals")],
    "bootpoly.fit": [(cli, "fit"), (bootpoly, "fit")],
    "bootpoly.verify": [(bootpoly, "verify")],
    "lp.solve_lp": [(bootpoly, "solve_lp"), (lp, "solve_lp")],
    **{f"crypto_sim.{op}": [(crypto_sim, op)] for op in CRYPTO_OPS},
    "simulator.estimate_empirical_gain": [(simulator, "estimate_empirical_gain")],
    "simulator.run_closed_loop": [(cli, "run_closed_loop"),
                                  (simulator, "run_closed_loop")],
    "simulator.aligned_disturbance": [(simulator, "aligned_disturbance")],
}

# The three calls whose summed time gives certify_s, fit_s and the step
# rate.  Untraced passes wrap only these, which costs a few microseconds
# against calls that take milliseconds to seconds.
STAGES = ("analysis.analyze_l2_gain", "bootpoly.fit", "simulator.run_closed_loop")
STAGE_TARGETS = {name: LAYER_TARGETS[name] for name in STAGES}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_lp(rec, args, kwargs, result):
    rec.counts["lp.iterations"] += result.iterations


def _observe_verify(rec, args, kwargs, result):
    poly = _arg(args, kwargs, 0, "poly")
    samples = _arg(args, kwargs, 1, "samples")
    rec.counts["bootpoly.verify.samples"] += samples * (2 * poly.spec.K + 1)


def _observe_solve(rec, args, kwargs, outcome):
    problem = _arg(args, kwargs, 0, "problem")
    rec.counts["sdp.solves"] += 1
    rec.counts["sdp.newton_steps"] += outcome.iterations
    rec.counts["sdp.feasible"] += outcome.status == sdp.FEASIBLE
    rec.counts["sdp.numerical_failures"] += outcome.status == sdp.NUMERICAL_FAILURE
    dim = max(con.dim for con in problem.constraints)
    rec.counts["sdp.lmi_dim_max"] = max(rec.counts["sdp.lmi_dim_max"], dim)


def _observe_run(rec, args, kwargs, result):
    rec.results.append(("simulator.run_closed_loop", result))
    rec.counts["simulator.steps"] += result.z_p.shape[0]
    rec.counts["simulator.refresh_events"] += len(result.events)
    rec.counts["simulator.violations"] += result.violations
    rec.maxima["simulator.max_ledger_usage"] = max(
        rec.maxima.get("simulator.max_ledger_usage", 0.0),
        result.max_fidelity_ratio)


def _capture(name):
    def observe(rec, args, kwargs, result):
        rec.results.append((name, result))
    return observe


OBSERVERS = {
    "lp.solve_lp": _observe_lp,
    "bootpoly.verify": _observe_verify,
    "sdp.solve_feasibility": _observe_solve,
    "simulator.run_closed_loop": _observe_run,
    "analysis.analyze_l2_gain": _capture("analysis.analyze_l2_gain"),
    "bootpoly.fit": _capture("bootpoly.fit"),
}


class Recorder:
    """Spans, counts and captured stage results of one benchmark pass."""

    def __init__(self, targets):
        self.targets = targets
        self.names = [ROOT_SPAN, *targets]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.maxima = {}
        # (span name, return value) of the stage calls, for the output checks
        self.results = []
        # speed.SpeedProbe that ran during the pass, if any
        self.probe = None

    def _open(self, name_id):
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index):
        self.span_end[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The pass itself: parent of every span recorded inside it."""
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn):
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)
        counts_scheme_errors = name.startswith("crypto_sim.")
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = rec._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec._close(index)
                if counts_scheme_errors and isinstance(exc, crypto_sim.SchemeError):
                    rec.counts["crypto_sim.scheme_errors"] += 1
                raise
            rec._close(index)
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, sites in self.targets.items():
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ----------------------------------------------------------- analysis

    def arrays(self):
        """(name id, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.span_name, dtype=np.intc),
                np.frombuffer(self.span_parent, dtype=np.intc),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def self_times(self):
        """Per-span duration and self time (duration minus direct children)."""
        _, parent, start, end = self.arrays()
        duration = end - start
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return duration, duration - children

    @property
    def wall_s(self):
        """Duration of the pass (root span), less the speed probe's own time."""
        probe_s = self.probe.total_s if self.probe is not None else 0.0
        return self.span_end[0] - self.span_start[0] - probe_s

    def per_name(self):
        """name -> (calls, summed duration, summed self time)."""
        name, _, _, _ = self.arrays()
        duration, own = self.self_times()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=duration, minlength=n)
        self_total = np.bincount(name, weights=own, minlength=n)
        return {label: (int(calls[i]), float(total[i]), float(self_total[i]))
                for i, label in enumerate(self.names)}

    def durations(self, label):
        """Per-call durations of one span name, in seconds."""
        name, _, start, end = self.arrays()
        pick = name == self.names.index(label)
        return end[pick] - start[pick]

    def stage_result(self, label):
        return [value for name, value in self.results if name == label]
