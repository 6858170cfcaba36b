"""The benchmark's result lines must stay strict JSON.

A span name that no call reaches makes its per-layer median NaN, and
json.dumps writes that as a bare NaN, which strict JSON parsers refuse. So
the workloads are run in-process on a tiny config, traced and untraced, and
every metric must come out finite. The untraced sweep also pins the hook
its per-orientation timer needs: after the set-up, cmd_sweep's per-antenna
path calls chamber.probe_voltages exactly once per orientation.
"""
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

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
# The set-up path of the highorder-lse workload: no optimizer, LSE, more
# probes than references, here also one reference more than the 3 modes.
TINY_LSE_CONFIG = {
    **TINY_CONFIG,
    "references": {"length": 0.1, "current": 1.0, "count": 4},
    "chamber": {"n_probes": 6, "n_paths": 6, "sigma_rho": 0.001, "seeds": [0, 1, 2]},
    "reconstruction": {"method": "lse", "normalization": None},
}
TINY_WORKLOADS = [
    workloads.Workload("tiny-reconstruct", TINY_CONFIG, workloads.RELATIVE_TOL, n_antennas=4),
    workloads.Workload("tiny-lse", TINY_LSE_CONFIG, workloads.RELATIVE_TOL, n_antennas=4),
    workloads.Workload("tiny-sweep", TINY_CONFIG, workloads.RELATIVE_TOL,
                       sweep_step_deg=90.0, sweep_rows=12),
]


def _refuse(constant):
    raise ValueError(f"result line holds the non-JSON constant {constant}")


@pytest.mark.parametrize("wl", TINY_WORKLOADS, ids=lambda w: w.name)
def test_traced_result_line_is_strict_json_with_finite_metrics(wl):
    result, _ = workloads.run(wl, seed=3, seconds=0, trace=True)
    parsed = json.loads(json.dumps(result), parse_constant=_refuse)
    metrics = {name: m["value"] for name, m in parsed["metrics"].items()}
    assert not [name for name, value in metrics.items() if not math.isfinite(value)]
    assert metrics["farfield.synthesize_us"] > 0.0
    assert metrics["farfield.synth_calls_per_directivity"] >= 1


@pytest.mark.parametrize("wl", TINY_WORKLOADS, ids=lambda w: w.name)
def test_untraced_result_line_is_strict_json_with_finite_metrics(wl):
    result, detail = workloads.run(wl, seed=3, seconds=0, trace=False)
    parsed = json.loads(json.dumps(result), parse_constant=_refuse)
    assert parsed["correct"] and parsed["failed"] == 0
    metrics = {name: m["value"] for name, m in parsed["metrics"].items()}
    assert set(metrics) == set(workloads.END_TO_END_UNITS)
    assert not [name for name, value in metrics.items() if not math.isfinite(value)]
    # seconds=0 runs one pass or one sweep: one latency per orientation.
    expected = wl.sweep_rows if wl.is_sweep else wl.n_antennas
    assert detail["latency_samples"] == detail["orientations"] == expected
