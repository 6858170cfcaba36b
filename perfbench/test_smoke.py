"""Smoke test of the benchmark on a tiny config; runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json

import pytest

import hostspeed
import workloads
from multipat import cli, recon

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

# A 0.1-wavelength dipole is almost pure l = 1, so three modes reconstruct it.
TINY_CONFIG = {
    "wavelength": 1.0,
    "mode_set": {"lambda_max": 1, "parity": "odd", "multipole": "electric"},
    "references": {
        "length": 0.1,
        "current": 1.0,
        "count": 3,
        "optimize": {"objective": "cond-A", "budget": 10},
    },
    "chamber": {"n_probes": 3, "n_paths": 3, "sigma_rho": 0.001, "seeds": [0, 1, 2]},
    "test_antenna": {"length": 0.1, "theta0": 0.0, "phi0": 0.0, "current": 1.0},
    "reconstruction": {"method": "inverse", "normalization": None},
}
TINY_RECONSTRUCT = workloads.Workload(
    "tiny-reconstruct", TINY_CONFIG, workloads.RELATIVE_TOL, n_antennas=4
)
TINY_SWEEP = workloads.Workload(
    "tiny-sweep", TINY_CONFIG, workloads.RELATIVE_TOL, sweep_step_deg=90.0, sweep_rows=12
)


def _declared_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("wl", [TINY_RECONSTRUCT, TINY_SWEEP], ids=lambda w: w.name)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(wl, trace, section):
    result, detail = workloads.run(wl, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared_units(section)
    assert detail["failed_frac"] == 0.0
    if wl.is_sweep and not trace:  # one latency per orientation of every sweep
        assert detail["latency_samples"] == detail["sweeps"] * wl.sweep_rows


def test_a_failed_reconstruction_is_counted(monkeypatch):
    doomed = workloads.orientation_design(TINY_RECONSTRUCT.n_antennas)[-1]
    original = cli._reconstruct_test

    def fail_one_antenna(setup, spec):
        if (spec.theta0, spec.phi0) == doomed:
            raise recon.IllConditionedError("T", 1e13, recon.COND_ERROR)
        return original(setup, spec)

    monkeypatch.setattr(cli, "_reconstruct_test", fail_one_antenna)
    result, detail = workloads.run(TINY_RECONSTRUCT, seed=3, seconds=0, trace=False)
    # The doomed antenna fails once in each pass over the design.
    passes = detail["passes"]
    assert result["attempted"] == passes * TINY_RECONSTRUCT.n_antennas
    assert result["failed"] == passes and not result["correct"]
    assert detail["failed_frac"] == result["failed"] / result["attempted"]


def test_timings_are_scaled_by_the_host_speed_during_them():
    out = workloads.Outcome()
    # A host at half speed for the first 30 s, then at full speed.
    out.host.at = [float(t) for t in range(60)]
    out.host.samples = [2.0 * hostspeed.NOMINAL_KERNEL_S] * 30 + [hostspeed.NOMINAL_KERNEL_S] * 30
    out.add_latency(0, 0.0, 0.5)  # too short for its own samples: the 3 nearest
    out.add_latency(1, 30.0, 59.0)  # scaled by the 29 samples during it
    out.busy = [out.pooled()]  # one pass over a 2-antenna design
    out.setup_times = [1.0]  # already in nominal seconds
    two_antennas = workloads.Workload("two", TINY_CONFIG, workloads.RELATIVE_TOL, n_antennas=2)
    metrics = workloads.end_to_end_metrics(two_antennas, out)
    assert metrics["recon_mean_ms"][0] == pytest.approx(1e3 * (0.25 + 29.0) / 2)
    assert metrics["setup_s"][0] == 1.0
    assert metrics["sweep_orient_per_s"][0] == pytest.approx(2 / (1.0 + 0.25 + 29.0))
