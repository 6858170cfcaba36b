"""Span tracing for the traced benchmark run.

The program's files stay untouched: wrappers replace module attributes at the
place each caller looks a function up (``cli`` calls ``farfield.decompose``
through the module, ``recon`` imported ``probe_voltages`` by name, so both
attributes are wrapped). Spans stay in memory and are written once, at the end.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from multipat import chamber, cli, dipole, farfield, fileio, planner, recon
from multipat.vsh import build_mode_set

# Layers are the program's modules; a span's layer is its name up to the dot.
LAYERS = ("planner", "farfield", "chamber", "dipole", "recon", "fileio", "cli")


def _count_field_points(counts: Counter, args) -> None:
    counts["dipole.field_points"] += np.broadcast(args[1], args[2]).size


# (module, attribute, span name, per-call counter or None)
TRACE_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "build_setup", "cli.build_setup", None),
    (cli, "_reconstruct_test", "cli.reconstruct_test", None),
    (planner, "fibonacci_orientations", "planner.fibonacci_orientations", None),
    (planner, "optimize_reference_orientations", "planner.optimize", None),
    (planner, "dipole_coefficient_matrix", "planner.objective", None),
    (farfield, "decompose", "farfield.decompose", None),
    (farfield, "radiation_summary", "farfield.radiation_summary", None),
    (farfield, "directivity", "farfield.directivity", None),
    (farfield, "synthesize", "farfield.synthesize", None),
    (farfield, "synthesize_on_grid", "farfield.synthesize_on_grid", None),
    (farfield, "field_radiation_summary", "farfield.field_summary", None),
    (farfield, "rms_field_error", "farfield.rms_field_error", None),
    (chamber, "select_chamber", "chamber.select", None),
    (chamber, "sample_chamber", "chamber.sample", None),
    (chamber, "probe_voltages", "chamber.probe_voltages", None),
    (recon, "probe_voltages", "chamber.probe_voltages", None),
    (dipole, "dipole_field", "dipole.field", _count_field_points),
    (dipole, "reference_dipole_set", "dipole.reference_set", None),
    (recon, "calibrate", "recon.calibrate", None),
    (recon, "channel_from_calibration", "recon.channel", None),
    (recon, "reconstruct_inverse", "recon.solve", None),
    (recon, "reconstruct_lse", "recon.solve", None),
    (recon, "reconstruct_weights_direct", "recon.solve", None),
    (fileio, "load_config", "fileio.load_config", None),
    (fileio, "write_json", "fileio.write", None),
    (fileio, "write_sweep_csv", "fileio.write", None),
)


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if counter is not None:
                counter(counts, args)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, attr, name, counter in TRACE_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "format": "perfbench-spans/1",
            "fields": ["name", "start_s", "end_s", "parent", "error"],
            "names": names,
            "spans": [[index[n], a, b, p, e] for n, a, b, p, e in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else math.nan


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, typical call times and self times from the spans."""
    spans = tracer.spans
    durations = defaultdict(list)
    child_time = [0.0] * len(spans)
    synth_per_directivity = {}  # directivity span index -> synthesize calls under it
    for i, (name, start, end, parent, _) in enumerate(spans):
        durations[name].append(end - start)
        if name == "farfield.directivity":
            synth_per_directivity[i] = 0
        if parent >= 0:
            child_time[parent] += end - start
            if name == "farfield.synthesize" and parent in synth_per_directivity:
                synth_per_directivity[parent] += 1
    self_s = Counter()
    for (name, start, end, _, _), inner in zip(spans, child_time):
        self_s[name.split(".", 1)[0]] += (end - start) - inner

    def total(*names):
        return sum(sum(durations[n]) for n in names)

    n_select = len(durations["chamber.select"])
    out = {
        "planner.objective_evals": (len(durations["planner.objective"]), "count"),
        "planner.total_s": (total("planner.optimize", "planner.fibonacci_orientations"), "s"),
        "farfield.directivity_calls": (len(durations["farfield.directivity"]), "count"),
        "farfield.directivity_ms": (_median_ms(durations["farfield.directivity"]), "ms"),
        "farfield.synth_calls_per_directivity": (
            statistics.median_low(synth_per_directivity.values()) if synth_per_directivity else 0,
            "count",
        ),
        "farfield.synthesize_us": (1e3 * _median_ms(durations["farfield.synthesize"]), "us"),
        "farfield.synthesize_on_grid_ms": (_median_ms(durations["farfield.synthesize_on_grid"]), "ms"),
        "farfield.field_summary_ms": (_median_ms(durations["farfield.field_summary"]), "ms"),
        "farfield.decompose_ms": (_median_ms(durations["farfield.decompose"]), "ms"),
        "chamber.select_s": (total("chamber.select"), "s"),
        "chamber.candidates": (len(durations["chamber.sample"]) // max(n_select, 1), "count"),
        "chamber.probe_voltages_calls": (len(durations["chamber.probe_voltages"]), "count"),
        "chamber.probe_voltages_us": (1e3 * _median_ms(durations["chamber.probe_voltages"]), "us"),
        "dipole.field_calls": (len(durations["dipole.field"]), "count"),
        "dipole.field_points": (tracer.counts["dipole.field_points"], "count"),
        "recon.calibrate_ms": (_median_ms(durations["recon.calibrate"]), "ms"),
        "recon.solve_calls": (len(durations["recon.solve"]), "count"),
        "recon.solve_us": (1e3 * _median_ms(durations["recon.solve"]), "us"),
        "recon.ill_conditioned": (
            sum(1 for s in spans if s[4] == "IllConditionedError" and s[0].startswith("recon.")),
            "count",
        ),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out


def _median_call_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probe_metrics(config: dict) -> dict:
    """Layer probes, run untraced: uncached mode_basis at one point and on a
    quadrature grid for L = 3, 10, 15 (all-both mode set), and one planner
    objective evaluation at the workload's own mode set and reference count."""
    out = {}
    point = (np.array([0.7]), np.array([1.1]))
    for lam in (3, 10, 15):
        ms = build_mode_set(lam, "all", "both")
        grid = farfield.default_grid(lam)
        flat = (grid.theta_mesh.ravel(), grid.phi_mesh.ravel())
        out[f"farfield.mode_basis_point_ms.L{lam}"] = (
            _median_call_ms(lambda: farfield.mode_basis(ms, *point), 5), "ms")
        out[f"farfield.mode_basis_grid_ms.L{lam}"] = (
            _median_call_ms(lambda: farfield.mode_basis(ms, *flat), 3), "ms")

    cfg = fileio.parse_config(config)
    mode_set = cfg.mode_set()
    grid = farfield.default_grid(mode_set.lambda_max)
    orientations = planner.fibonacci_orientations(cfg.ref_count)

    def objective():
        matrix = planner.dipole_coefficient_matrix(orientations, mode_set, cfg.ref_length, grid=grid)
        return float(np.linalg.cond(matrix))

    objective()  # fill the basis cache, as the optimizer's first evaluation does
    out["planner.objective_ms"] = (_median_call_ms(objective, 10), "ms")
    return out
