"""Tests for the benchmark's own code (run with `python3 -m pytest perfbench`).

They use scaled-down workloads, so they check the instrumentation and the
output checks, not the benchmark's timings.
"""

import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from bootctrl import analysis, crypto_sim, simulator, statespace  # noqa: E402
from bootctrl.bootpoly import fit  # noqa: E402
from bootctrl.fixtures import default_bootstrap_spec, demo_scheme, demo_system  # noqa: E402
from bootctrl.simulator import ENCRYPTED, SimulationConfig  # noqa: E402
from tracer import CRYPTO_OPS, LAYER_TARGETS, STAGE_TARGETS, Recorder  # noqa: E402


@pytest.fixture(scope="module")
def loop():
    plant, controller = demo_system()
    return plant, controller, statespace.interconnect(plant, controller)


def traced_pass(wl):
    rec = Recorder(LAYER_TARGETS)
    with rec.installed(), rec.root():
        output = wl.run_pass()
    return rec, output


@pytest.fixture(scope="module")
def small_passes(tmp_path_factory):
    """Two traced passes each of a small encrypted study and design sweep."""
    out = tmp_path_factory.mktemp("bench")
    study = workloads.EncryptedStudy(5, out, steps=60, n_random=1)
    sweep = workloads.DesignSweep(5, out, grid=((15, 1),), fir_lengths=(5,),
                                  fir_steps=40)
    passes = {}
    for wl in (study, sweep):
        wl.setup()
        passes[wl.name] = (wl, [traced_pass(wl) for _ in range(2)])
    return passes


def _originals():
    return {(module, attr): getattr(module, attr)
            for sites in LAYER_TARGETS.values() for module, attr in sites}


def test_wrapped_calls_return_same_values_and_restore(loop):
    _, _, cl = loop
    scheme = demo_scheme()
    before = _originals()
    plain = statespace.lift(cl, 3)
    plain_ct = crypto_sim.encrypt(crypto_sim.keygen(scheme), 0.25, level=2)
    rec = Recorder(LAYER_TARGETS)
    with rec.installed():
        assert analysis.lift is not before[(analysis, "lift")]
        wrapped = analysis.lift(cl, 3)
        wrapped_ct = crypto_sim.encrypt(crypto_sim.keygen(scheme), 0.25, level=2)
    assert _originals() == before
    for field in ("Acl", "Bp", "Bu", "Cp", "Dpp", "Dpu", "Cu", "Dup", "Duu"):
        assert np.array_equal(getattr(plain, field), getattr(wrapped, field))
    assert wrapped_ct == plain_ct
    assert rec.per_name()["statespace.lift"][0] == 1
    assert rec.per_name()["crypto_sim.encrypt"][0] == 1


def test_wrapped_calls_raise_same_exceptions(loop):
    _, _, cl = loop
    scheme = demo_scheme()
    ct = crypto_sim.encrypt(crypto_sim.keygen(scheme), 0.25, level=0)
    calls = (lambda: analysis.lift(cl, 0), lambda: crypto_sim.rescale(scheme, ct))
    plain = []
    for call in calls:
        with pytest.raises(Exception) as info:
            call()
        plain.append((type(info.value), str(info.value)))
    rec = Recorder(LAYER_TARGETS)
    with rec.installed():
        for call, (kind, message) in zip(calls, plain):
            with pytest.raises(kind) as info:
                call()
            assert type(info.value) is kind and str(info.value) == message
    assert rec.counts["crypto_sim.scheme_errors"] == 1
    assert all(end > 0 for end in rec.span_end)  # spans closed on the way out


def test_tracing_keeps_encrypted_run_bitwise(loop):
    plant, controller, _ = loop
    scheme = demo_scheme()
    poly = fit(default_bootstrap_spec()).rescaled(float(scheme.q0))
    w1 = np.random.default_rng(3).standard_normal((60, plant.m_w1))
    config = SimulationConfig(mode=ENCRYPTED, steps=60, T_BS=10, seed=4)

    def run_once():
        return simulator.run_closed_loop(plant, controller, config,
                                         scheme=scheme, poly=poly, w_p1=w1)

    plain = run_once()
    rec = Recorder(LAYER_TARGETS)
    with rec.installed():
        traced = run_once()
    for field in ("z_p", "u", "y", "x_plant", "x_c"):
        assert np.array_equal(getattr(plain, field), getattr(traced, field))
    assert plain.events == traced.events and len(plain.events) == 10
    assert plain.empirical_gain == traced.empirical_gain
    assert rec.counts["simulator.refresh_events"] == 10


def test_counts_repeat_for_fixed_seed(small_passes):
    keys = ["sdp.newton_steps", "lp.iterations", "simulator.refresh_events"]
    for wl, passes in small_passes.values():
        (first, _), (second, _) = passes
        for key in keys:
            assert first.counts[key] == second.counts[key], (wl.name, key)
        for op in CRYPTO_OPS:
            name = f"crypto_sim.{op}"
            assert first.per_name()[name][0] == second.per_name()[name][0]
    study = small_passes["encrypted_study"][1][0][0]
    sweep = small_passes["design_sweep"][1][0][0]
    assert study.counts["simulator.refresh_events"] > 0
    assert study.per_name()["crypto_sim.rescale"][0] > 0
    assert sweep.counts["sdp.newton_steps"] > 0 and sweep.counts["lp.iterations"] > 0
    assert sweep.per_name()["crypto_sim.rescale"][0] == 0


def test_self_times_nonnegative_and_sum_to_wall(small_passes):
    for _, passes in small_passes.values():
        for rec, _ in passes:
            _, parent, _, _ = rec.arrays()
            duration, own = rec.self_times()
            assert list(np.flatnonzero(parent < 0)) == [0]
            assert own.min() >= -1e-12
            assert abs(own.sum() - rec.wall_s) <= 1e-9 * rec.wall_s
            assert duration[0] == rec.wall_s


def test_small_workloads_pass_their_checks_and_can_fail(small_passes):
    for wl, passes in small_passes.values():
        for rec, output in passes:
            assert wl.check(rec, output) == 0
    wl, passes = small_passes["encrypted_study"]
    certified = wl.certified_gain()
    wl._certified = 0.5  # below every observed gain
    try:
        assert wl.check(*passes[0]) == wl.ops_per_pass
    finally:
        wl._certified = certified


def test_reported_metrics_match_benchmark_json(small_passes):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, passes = small_passes["design_sweep"]
    traced = [(rec, output, False) for rec, output in passes]
    measured = run.layer_metrics(traced)
    measured.update(run.stage_metrics(traced))
    measured["trace.overhead_ratio"] = 0.0
    assert list(run.select(spec["per_layer"], measured)) == [
        m["name"] for m in spec["per_layer"]]
    e2e = {"setup_s", "wall_norm_s", "ok_ratio", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    assert set(STAGE_TARGETS) <= set(LAYER_TARGETS)


def test_bounds_cover_the_recorded_baseline():
    """Each end-to-end bound is within the format's limit, at least three
    times the spread and no narrower than the set-to-set drift recorded in
    baseline.json."""
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    # set-up drifts with the machine and gets the format's limit; the pass
    # time is read at a reference speed (speed.py) and is far steadier
    assert bounds["setup_s"] == max(bounds.values()) == 0.25
    first, repeat = baseline["end_to_end"], baseline["end_to_end_repeat"]
    for workload in first:
        for name, bound in bounds.items():
            a = first[workload]["summary"][name]
            b = repeat[workload]["summary"][name]
            if name != "setup_s":  # the contract leaves set-up spread unbounded
                # a third of the bound leaves room for a noisier host
                assert a["iqr_over_median"] <= bound / 3, (workload, name)
                assert b["iqr_over_median"] <= bound / 3, (workload, name)
            assert abs(b["median"] - a["median"]) <= bound * a["median"], (workload, name)


class Instant:
    def run_pass(self):
        return "done"


def test_runs_make_at_least_min_passes_past_the_deadline():
    passes, peak_rss_mb = run.run_passes(Instant(), [STAGE_TARGETS], deadline=0.0,
                                         min_passes=run.MIN_PASSES)
    assert len(passes) == run.MIN_PASSES and peak_rss_mb > 0
    assert [output for _, output, raised in passes] == ["done"] * run.MIN_PASSES


def test_speed_probe_keeps_encrypted_run_bitwise(loop):
    plant, controller, _ = loop
    scheme = demo_scheme()
    poly = fit(default_bootstrap_spec()).rescaled(float(scheme.q0))
    config = SimulationConfig(mode=ENCRYPTED, steps=200, T_BS=10, seed=4)

    def run_once():
        return simulator.run_closed_loop(plant, controller, config,
                                         scheme=scheme, poly=poly)

    plain = run_once()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval_s=0.001) as probe:
        probed = run_once()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) > 1 and probe.total_s > 0
    for field in ("z_p", "u", "y", "x_plant", "x_c"):
        assert np.array_equal(getattr(plain, field), getattr(probed, field))
    assert plain.events == probed.events


def test_normalise_rescales_by_mean_probe_speed():
    probe = speed.SpeedProbe()
    probe.samples = [speed.NOMINAL_S, 2 * speed.NOMINAL_S]  # speeds 1 and 1/2
    assert probe.speed() == pytest.approx(0.75)
    assert probe.normalise(2.0) == pytest.approx(1.5)


def test_probed_pass_wall_excludes_probe_time():
    class Busy:
        def run_pass(self):
            total = 0
            for j in range(3_000_000):
                total += j % 7
            return total

    passes, _ = run.run_passes(Busy(), [STAGE_TARGETS], deadline=0.0,
                               min_passes=2, probe=True)
    for rec, output, raised in passes:
        probe = rec.probe
        assert not raised and output == Busy().run_pass()
        assert probe.samples and 0 < probe.total_s < rec.wall_s
        root_s = rec.span_end[0] - rec.span_start[0]
        assert rec.wall_s == pytest.approx(root_s - probe.total_s)
    stage = run.stage_metrics(passes)
    assert stage["wall_norm_s"] > 0 and stage["wall_s"] > 0
    # a pass shorter than one probe interval still gets one sample
    passes, _ = run.run_passes(Instant(), [STAGE_TARGETS], deadline=0.0,
                               min_passes=1, probe=True)
    assert len(passes[0][0].probe.samples) == 1
    assert passes[0][0].probe.total_s == 0.0
