"""Benchmark workloads for multipat: configs, inputs, runs and output checks.

Each workload runs in a fresh interpreter, because farfield's basis cache
starts cold for a command-line user too. Every call goes through the public
entry points of the program (``cli.build_setup``, ``cli._reconstruct_test``,
``cli.main``); the program itself is not modified.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads, so runs on any box use one core
# for linear algebra and the peak search sees the same floating-point sums.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
sys.path.insert(0, str(SRC))

import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import multipat  # noqa: E402

if Path(multipat.__file__).resolve().parent != SRC / "multipat":
    raise ImportError(f"multipat was imported from {multipat.__file__}, not from {SRC}")

from multipat import chamber, cli, dipole, fileio  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 3  # cold build_setup samples per untraced run: this process + 2 children

END_TO_END_UNITS = {
    "setup_s": "s",
    "recon_mean_ms": "ms",
    "recon_p50_ms": "ms",
    "recon_tail_ms": "ms",
    "sweep_orient_per_s": "1/s",
    "rms_err_max": "ratio",
    "rr_err_max_ohm": "ohm",
    "d_err_max": "ratio",
    "cond_a": "ratio",
    "cond_v": "ratio",
    "peak_rss_mb": "MB",
}

PAPER_CONFIG = {
    "wavelength": 1.0,
    "mode_set": {"lambda_max": 3, "parity": "odd", "multipole": "electric"},
    "references": {
        "length": 0.5,
        "current": 1.0,
        "count": 10,
        "optimize": {"objective": "cond-A", "budget": 1500},
    },
    "chamber": {"n_probes": 10, "n_paths": 10, "sigma_rho": 0.001, "seeds": list(range(100))},
    "test_antenna": {"length": 0.5, "theta0": math.pi / 4, "phi0": math.pi / 3, "current": 1.0},
    "reconstruction": {"method": "inverse", "normalization": None},
}

HIGHORDER_CONFIG = {
    "wavelength": 1.0,
    "mode_set": {"lambda_max": 5, "parity": "odd", "multipole": "electric"},
    "references": {"length": 1.0, "current": 1.0, "count": 21},
    "chamber": {"n_probes": 42, "n_paths": 42, "sigma_rho": 0.001, "seeds": list(range(100))},
    "test_antenna": {"length": 1.0, "theta0": 0.0, "phi0": 0.0, "current": 1.0},
    "reconstruction": {"method": "lse", "normalization": None},
}


@dataclass(frozen=True)
class Tolerance:
    """Largest accepted error per antenna; R_r and D are absolute, or a
    fraction of theory when relative is set."""

    rms: float
    rr: float
    d: float
    relative: bool = False

    def ok(self, rms, rr_err, d_err, theory_rr, theory_d) -> bool:
        rr_lim = self.rr * theory_rr if self.relative else self.rr
        d_lim = self.d * theory_d if self.relative else self.d
        return rms < self.rms and abs(rr_err) <= rr_lim and abs(d_err) <= d_lim


# Criterion 3 bounds the rms error; criterion 2 bounds R_r and D on the paper config.
PAPER_TOL = Tolerance(rms=0.05, rr=0.5, d=0.01)
RELATIVE_TOL = Tolerance(rms=0.05, rr=0.01, d=0.01, relative=True)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    tol: Tolerance
    n_antennas: int = 0  # reconstruct workloads: size of the orientation design
    sweep_step_deg: float = 0.0  # sweep workloads: orientation grid step
    sweep_rows: int = 0  # sweep workloads: expected rows of sweep.csv
    tail_pct: float = 75.0  # percentile that recon_tail_ms reports

    @property
    def is_sweep(self) -> bool:
        return self.sweep_step_deg > 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-reconstruct", PAPER_CONFIG, PAPER_TOL, n_antennas=16, tail_pct=80.0),
        Workload("paper-sweep", PAPER_CONFIG, PAPER_TOL, sweep_step_deg=45.0, sweep_rows=40),
        Workload("highorder-lse", HIGHORDER_CONFIG, RELATIVE_TOL, n_antennas=8),
    )
}


def orientation_design(n: int) -> list[tuple[float, float]]:
    """n test-antenna orientations spread evenly over the sphere (Fibonacci
    lattice).

    The peak-search time of one antenna jumps between 0.03 s and 2 s from
    one orientation to the next on the paper config, with no trend. With
    seeded random orientations the median latency of a 32-antenna run swung
    by a factor of four between seeds, so every run measures this one design
    and the seed only sets the visiting order.
    """
    golden = math.pi * (3.0 - math.sqrt(5.0))
    return [
        (math.acos(1.0 - (2 * i + 1) / n), (i * golden) % (2.0 * math.pi)) for i in range(n)
    ]


@dataclass
class Outcome:
    """What one run measured and checked."""

    setup_times: list = field(default_factory=list)  # nominal seconds
    setup_raw: list = field(default_factory=list)
    # The rest are (start, end) intervals of the host sampler's clock.
    # Each orientation's latencies, keyed by its index in the design or sweep grid:
    latencies: dict = field(default_factory=dict)
    # Program work per pass (its antennas) or per sweep (the command less its set-up):
    busy: list = field(default_factory=list)
    host: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # (rms, |dR_r|, |dD|) of successes
    cond: tuple = (math.nan, math.nan)
    checks_ok: bool = True
    notes: dict = field(default_factory=dict)

    def add_latency(self, index: int, start: float, end: float) -> None:
        self.latencies.setdefault(index, []).append((start, end))

    def pooled(self) -> list[tuple[float, float]]:
        return [iv for intervals in self.latencies.values() for iv in intervals]


def child_setup_times(config_path: Path, repeats: int, out: Outcome) -> None:
    """Cold build_setup times, each in a fresh interpreter."""
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--time-setup", str(config_path)],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        scaled, raw = proc.stdout.split()[-2:]
        out.setup_times.append(float(scaled))
        out.setup_raw.append(float(raw))


def time_setup(config_path) -> tuple[float, float]:
    """(scaled, raw) seconds of one cold build_setup."""
    cfg = fileio.load_config(config_path)
    return hostspeed.timed(cli.build_setup, cfg)[1:]


def _report_failure(what: str, exc: BaseException, out: Outcome) -> None:
    out.failed += 1
    if out.failed == 1:
        traceback.print_exception(exc, file=sys.stderr)
    else:
        print(f"failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def _reconstruct_pass(setup, wl: Workload, design, order, out: Outcome, record: bool) -> list:
    """Reconstructs design[i] for i in order; returns the antennas' intervals."""
    length = wl.config["test_antenna"]["length"]
    current = wl.config["test_antenna"]["current"]
    clock = out.host.clock
    busy = []
    for i in order:
        theta0, phi0 = design[i]
        spec = dipole.DipoleSpec(length, theta0, phi0, current)
        start = clock()
        try:
            _, rms, theory, rec, _, _ = cli._reconstruct_test(setup, spec)
        except Exception as exc:  # counted, reported, and the run goes on
            _report_failure(f"antenna ({theta0:.4f}, {phi0:.4f})", exc, out)
            continue
        finally:
            busy.append((start, clock()))
            out.add_latency(i, *busy[-1])
        rr_err = rec.radiation_resistance - theory.radiation_resistance
        d_err = rec.directivity - theory.directivity
        if not wl.tol.ok(rms, rr_err, d_err, theory.radiation_resistance, theory.directivity):
            out.failed += 1
            print(
                f"failed: antenna ({theta0:.4f}, {phi0:.4f}) out of tolerance: "
                f"rms {rms:.3e}, dR_r {rr_err:.3e}, dD {d_err:.3e}",
                file=sys.stderr,
            )
        if record:
            out.errors.append((rms, abs(rr_err), abs(d_err)))
    out.attempted += len(order)
    return busy


def _warm_up(setup, wl: Workload) -> None:
    """One untimed reconstruction of the config's own test antenna. It fills
    the coarse-grid basis cache, whose cost would otherwise land on whichever
    antenna the seed puts first."""
    ta = wl.config["test_antenna"]
    spec = dipole.DipoleSpec(ta["length"], ta["theta0"], ta["phi0"], ta["current"])
    cli._reconstruct_test(setup, spec)


def run_reconstruct(wl: Workload, config_path: Path, seed: int, seconds: float,
                    tr: tracer.Tracer | None) -> Outcome:
    """Cold set-up, one untimed warm-up antenna, then whole passes over the
    orientation design until the next pass would end after `seconds` (at
    least one). Passes alternate between the seeded order and its reverse.
    Every antenna's latency goes into one pool, so each orientation is timed
    at several moments spread over the run. Untraced, the host-speed
    sampler runs during the passes."""
    out = Outcome()
    design = orientation_design(wl.n_antennas)
    order = [int(i) for i in np.random.default_rng(seed).permutation(len(design))]
    if tr is None:
        setup, scaled, raw = hostspeed.timed(cli.build_setup, fileio.load_config(config_path))
        out.setup_times.append(scaled)
        out.setup_raw.append(raw)
        child_setup_times(config_path, SETUP_REPEATS - 1, out)
    else:
        tr.install()
        setup = cli.build_setup(fileio.load_config(config_path))
        tr.uninstall()
    conds = cli._condition_numbers(setup)
    out.cond = (conds["a_matrix"], conds["v_matrix"])
    _warm_up(setup, wl)
    if tr is not None:
        tr.install()

    begin = time.perf_counter()
    with out.host if tr is None else contextlib.nullcontext():
        while True:
            sequence = order if len(out.busy) % 2 == 0 else order[::-1]
            out.busy.append(_reconstruct_pass(setup, wl, design, sequence, out, record=not out.busy))
            elapsed = time.perf_counter() - begin
            if tr is not None or elapsed + elapsed / len(out.busy) > seconds:
                break
    out.notes["passes"] = len(out.busy)

    if tr is not None:
        tr.uninstall()
        untraced = _reconstruct_pass(setup, wl, design, order, Outcome(), record=False)
        out.notes["overhead_frac"] = _raw(out.busy[0]) / _raw(untraced) - 1.0
    return out


class SweepClock:
    """Times the set-up and each orientation of an in-process
    ``multipat sweep`` from outside the program.

    ``cmd_sweep`` looks up ``cli.build_setup``, ``chamber.probe_voltages`` and
    ``fileio.write_sweep_csv`` through their modules at call time. After the
    set-up returns, each probe_voltages call ends one orientation and starts
    the next, and the write of sweep.csv ends the last one. Times are read
    from the run's host-speed sampler, which must be running.
    """

    def __init__(self, out: Outcome):
        self.out = out
        self.setups: list[tuple[float, float]] = []
        self._looping = False  # between the end of set-up and the write of sweep.csv
        self._index = 0  # grid index of the orientation in progress
        self._start = None  # its start time
        self._saved = []

    def _lap(self, next_orientation: bool) -> None:
        now = self.out.host.clock()
        if self._start is not None:
            self.out.add_latency(self._index, self._start, now)
            self._index += 1
        self._start = now if next_orientation else None

    def install(self) -> None:
        build_setup = cli.build_setup
        probe_voltages = chamber.probe_voltages
        write_sweep_csv = fileio.write_sweep_csv
        out = self.out

        def timed_setup(cfg):
            start = out.host.clock()
            setup = build_setup(cfg)
            self.setups.append((start, out.host.clock()))
            self._looping, self._index, self._start = True, 0, None
            return setup

        def stamped_probe(*args, **kwargs):
            if self._looping:
                self._lap(next_orientation=True)
            return probe_voltages(*args, **kwargs)

        def stamped_write(*args, **kwargs):
            if self._looping:
                self._lap(next_orientation=False)
                self._looping = False
            return write_sweep_csv(*args, **kwargs)

        self._saved = [(cli, "build_setup", build_setup),
                       (chamber, "probe_voltages", probe_voltages),
                       (fileio, "write_sweep_csv", write_sweep_csv)]
        for (module, attr, _), fn in zip(self._saved, (timed_setup, stamped_probe, stamped_write)):
            setattr(module, attr, fn)

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved = []


def _sweep_once(wl: Workload, config_path: Path, out: Outcome, record: bool) -> tuple:
    """One in-process ``multipat sweep``; checks sweep.csv and returns the
    command's interval."""
    work = Path(tempfile.mkdtemp(dir=OUT_DIR))
    argv = ["sweep", "--config", str(config_path), "--out", str(work),
            "--step", repr(wl.sweep_step_deg), "--degrees"]
    out.attempted += wl.sweep_rows
    clock = out.host.clock
    start = clock()
    try:
        code = cli.main(argv)
        interval = (start, clock())
        if code != 0:
            raise RuntimeError(f"multipat sweep exited {code}")
        rows = fileio.read_sweep_csv(work / "sweep.csv")
        meta = fileio.read_json(work / "sweep_meta.json")
    except Exception as exc:  # the whole sweep counts as failed
        out.checks_ok = False
        _report_failure("sweep", exc, out)
        out.failed += wl.sweep_rows - 1
        return start, clock()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(rows) != wl.sweep_rows:
        out.checks_ok = False
        print(f"failed: sweep.csv has {len(rows)} rows, expected {wl.sweep_rows}", file=sys.stderr)
    theory = meta["theory"]
    out.cond = (meta["condition_numbers"]["a_matrix"], meta["condition_numbers"]["v_matrix"])
    for t0, p0, rms, rr_err, d_err, status in rows:
        if status != "ok" or not wl.tol.ok(
            rms, rr_err, d_err, theory["radiation_resistance_ohm"], theory["directivity"]
        ):
            out.failed += 1
            print(f"failed: sweep row ({t0:.4f}, {p0:.4f}): {status}, rms {rms:.3e}, "
                  f"dR_r {rr_err:.3e}, dD {d_err:.3e}", file=sys.stderr)
        elif record:
            out.errors.append((rms, abs(rr_err), abs(d_err)))
    return interval


def run_sweep(wl: Workload, config_path: Path, seconds: float,
              tr: tracer.Tracer | None) -> Outcome:
    """In-process ``multipat sweep`` commands until the next one would end
    after `seconds` (at least one). Each sweep adds its set-up time, one
    latency per orientation, and the rest of its program time. Untraced,
    the host-speed sampler runs throughout."""
    out = Outcome()
    hooks = SweepClock(out) if tr is None else tr
    hooks.install()
    commands = []
    begin = time.perf_counter()
    try:
        with out.host if tr is None else contextlib.nullcontext():
            while True:
                commands.append(_sweep_once(wl, config_path, out, record=not commands))
                elapsed = time.perf_counter() - begin
                if tr is not None or elapsed + elapsed / len(commands) > seconds:
                    break
    finally:
        hooks.uninstall()
    out.notes["sweeps"] = len(commands)
    if tr is None:
        for (start, end), (setup_start, setup_end) in zip(commands, hooks.setups):
            out.busy.append([(start, setup_start), (setup_end, end)])
            out.setup_times.append(out.host.scaled(setup_start, setup_end))
            out.setup_raw.append(setup_end - setup_start)
        child_setup_times(config_path, SETUP_REPEATS - 1, out)
    else:
        untraced = _sweep_once(wl, config_path, Outcome(), record=False)
        out.notes["overhead_frac"] = _raw([commands[0]]) / _raw([untraced]) - 1.0
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _raw(intervals) -> float:
    return sum(end - start for start, end in intervals)


def end_to_end_metrics(wl: Workload, out: Outcome) -> dict:
    """End-to-end metrics. Every timing is in nominal seconds, scaled by the
    kernel samples taken during it (hostspeed.HostSpeed.scaled). The latency
    percentiles are taken over all latencies of the run at a fixed
    percentile per workload, so that they do not depend on how many passes
    fit in the run."""
    scaled = out.host.scaled
    pooled = [scaled(start, end) for start, end in out.pooled()] or [math.nan]
    busy = [sum(scaled(start, end) for start, end in intervals) for intervals in out.busy]
    if wl.is_sweep:  # one command: its set-up and the rest
        rates = [wl.sweep_rows / (setup + rest) for setup, rest in zip(out.setup_times, busy)]
    else:  # one set-up, then one pass over the design
        setup_s = statistics.median(out.setup_times)
        rates = [wl.n_antennas / (setup_s + one_pass) for one_pass in busy]
    errors = np.array(out.errors) if out.errors else np.full((1, 3), math.nan)
    values = {
        "setup_s": statistics.median(out.setup_times),
        "recon_mean_ms": 1e3 * statistics.fmean(pooled),
        "recon_p50_ms": 1e3 * float(np.percentile(pooled, 50.0)),
        "recon_tail_ms": 1e3 * float(np.percentile(pooled, wl.tail_pct)),
        "sweep_orient_per_s": statistics.median(rates),
        "rms_err_max": float(errors[:, 0].max()),
        "rr_err_max_ohm": float(errors[:, 1].max()),
        "d_err_max": float(errors[:, 2].max()),
        "cond_a": float(out.cond[0]),
        "cond_v": float(out.cond[1]),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(wl.config))
        tr = tracer.Tracer() if trace else None
        if wl.is_sweep:
            out = run_sweep(wl, config_path, seconds, tr)
        else:
            out = run_reconstruct(wl, config_path, seed, seconds, tr)
        if tr is None:
            metrics = end_to_end_metrics(wl, out)
        else:
            metrics = tracer.layer_metrics(tr)
            metrics.update(tracer.probe_metrics(wl.config))
            metrics["trace.overhead_frac"] = (out.notes["overhead_frac"], "ratio")
            tr.write(OUT_DIR / f"spans-{wl.name}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "failed_frac": out.failed / max(out.attempted, 1),
        "orientations": len(out.latencies),
        "latency_samples": len(out.pooled()),
        "recon_tail_percentile": wl.tail_pct,
        "samples_beyond_tail": len(out.pooled()) * (100.0 - wl.tail_pct) / 100.0,
        "setup_samples": len(out.setup_times),
        "setup_raw_s": out.setup_raw,
        "host_scale": out.host.scale() if out.host.samples else math.nan,
        "host_kernel_samples": len(out.host.samples),
        **out.notes,
        "environment": environment(),
    }
    result = {
        "correct": out.checks_ok and out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
    }
