"""CLI commands, file formats, exit codes, and replay determinism."""
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multipat
from multipat import chamber, cli, dipole, farfield, fileio, planner, recon
from multipat.chamber import ChamberModel, probe_voltages, sample_chamber
from multipat.dipole import DipoleSpec, reference_dipole_set
from multipat.farfield import SphereGrid, decompose
from multipat.fileio import ConfigError
from multipat.vsh import MULTIPOLE_FILTERS, PARITY_FILTERS, build_mode_set
from test_planner import quadrature_matrix

K = 2 * np.pi

SMALL_CONFIG = {
    "wavelength": 1.0,
    "mode_set": {"lambda_max": 3, "parity": "odd", "multipole": "electric"},
    "references": {"length": 0.5, "current": 1.0, "count": 10},
    "chamber": {"n_probes": 10, "n_paths": 10, "sigma_rho": 0.001, "seeds": [0, 1, 2]},
    "test_antenna": {"length": 0.5, "theta0": 0.9, "phi0": 2.1, "current": 1.0},
    "reconstruction": {"method": "inverse", "normalization": None},
}

# The highorder-lse benchmark workload: L = 5 odd electric (21 modes), 21
# full-wave references, 42 x 42 chambers, LSE.
HIGHORDER_LSE_CONFIG = {
    "wavelength": 1.0,
    "mode_set": {"lambda_max": 5, "parity": "odd", "multipole": "electric"},
    "references": {"length": 1.0, "current": 1.0, "count": 21},
    "chamber": {"n_probes": 42, "n_paths": 42, "sigma_rho": 0.001, "seeds": list(range(100))},
    "test_antenna": {"length": 1.0, "theta0": 0.0, "phi0": 0.0, "current": 1.0},
    "reconstruction": {"method": "lse", "normalization": None},
}


# Method and shape combinations that no solve can serve: inverse needs
# references.count = n_probes = the mode count (10), direct-weights needs
# n_probes = references.count.
IMPOSSIBLE_SHAPES = {
    "inverse-count-12": {"references": {**SMALL_CONFIG["references"], "count": 12}},
    "inverse-probes-12": {"chamber": {**SMALL_CONFIG["chamber"], "n_probes": 12}},
    "direct-weights-probes-12": {
        "chamber": {**SMALL_CONFIG["chamber"], "n_probes": 12},
        "reconstruction": {"method": "direct-weights", "normalization": None},
    },
}

# radiation-resistance normalizations that leave no usable target r_meas - r_loss
BAD_RESISTANCE_NORMALIZATIONS = [
    {"mode": "radiation-resistance"},
    {"mode": "radiation-resistance", "r_meas": "73.1"},
    {"mode": "radiation-resistance", "r_meas": True},
    {"mode": "radiation-resistance", "r_meas": 73.1, "r_loss": False},
    {"mode": "radiation-resistance", "r_meas": 73.1, "r_loss": None},
    {"mode": "radiation-resistance", "r_meas": 73.1, "r_loss": 73.1},
    {"mode": "radiation-resistance", "r_meas": 50.0, "r_loss": 60.0},
]


def write_config(tmp_path, overrides=None, **sections):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    if overrides:
        for key, value in overrides.items():
            doc[key] = value
    for key, value in sections.items():
        doc[key].update(value)
    path = tmp_path / "config.json"
    fileio.write_json(path, doc)
    return path


class TestConfigParsing:
    def test_defaults(self):
        cfg = fileio.parse_config(SMALL_CONFIG)
        assert cfg.k == pytest.approx(2 * np.pi)
        assert cfg.mode_set().size == 10
        assert cfg.n_theta == 28 and cfg.n_phi == 28
        assert cfg.seeds == [0, 1, 2]

    def test_probe_guard(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["chamber"]["n_probes"] = 6
        with pytest.raises(ConfigError, match="probes"):
            fileio.parse_config(doc)

    def test_path_guard(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["chamber"]["n_paths"] = 6
        with pytest.raises(ConfigError):
            fileio.parse_config(doc)

    def test_unknown_method(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["reconstruction"]["method"] = "magic"
        with pytest.raises(ConfigError):
            fileio.parse_config(doc)

    def test_sigma_rho_bound(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["chamber"]["sigma_rho"] = fileio.SIGMA_RHO_MAX
        assert fileio.parse_config(doc).sigma_rho == fileio.SIGMA_RHO_MAX
        doc["chamber"]["sigma_rho"] = 2 * fileio.SIGMA_RHO_MAX
        with pytest.raises(ConfigError, match=r"sigma_rho must be in \(0, 1e\+100\]"):
            fileio.parse_config(doc)

    def test_integral_float_reads_as_an_integer(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["chamber"].update(n_probes=10.0, seeds=[0, 1.0, 2])
        cfg = fileio.parse_config(doc)
        assert cfg.n_probes == 10 and type(cfg.n_probes) is int
        assert cfg.seeds == [0, 1, 2] and all(type(s) is int for s in cfg.seeds)

    def test_physical_scale_bounds(self):
        top = fileio.PHYSICAL_SCALE_MAX
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["wavelength"] = top
        doc["references"]["current"] = -1.0 / top
        doc["test_antenna"]["current"] = top
        cfg = fileio.parse_config(doc)
        assert (cfg.wavelength, cfg.ref_current, cfg.test_current) == (top, -1.0 / top, top)
        for path, value in [(("wavelength",), 0.5 / top), (("wavelength",), 2.0 * top),
                            (("references", "current"), 2.0 * top),
                            (("test_antenna", "current"), -0.5 / top)]:
            bad = json.loads(json.dumps(doc))
            section = bad
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            with pytest.raises(ConfigError, match=r"\[1e-20, 1e\+20\]"):
                fileio.parse_config(bad)

    def test_dipole_length_bound(self):
        low = fileio.DIPOLE_LENGTH_MIN
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["references"]["length"] = doc["test_antenna"]["length"] = low
        cfg = fileio.parse_config(doc)
        assert (cfg.ref_length, cfg.test_length) == (low, low)
        for section in ("references", "test_antenna"):
            bad = json.loads(json.dumps(doc))
            bad[section]["length"] = 0.5 * low
            with pytest.raises(ConfigError, match=rf"{section}\.length must be at least 0\.0001"):
                fileio.parse_config(bad)

    def test_orientation_count_mismatch(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["references"]["orientations"] = [[0.1, 0.2]]
        with pytest.raises(ConfigError):
            fileio.parse_config(doc)

    def test_unit_weight_needs_weights(self):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["reconstruction"]["normalization"] = {"mode": "unit-weight"}
        with pytest.raises(ConfigError):
            fileio.parse_config(doc)

    @pytest.mark.parametrize("lambda_max", [1, 3, 5])
    def test_grid_bound(self, lambda_max):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["mode_set"] = {"lambda_max": lambda_max, "parity": "all", "multipole": "electric"}
        doc["references"]["count"] = doc["chamber"]["n_probes"] = doc["chamber"]["n_paths"] = 35
        doc["reconstruction"]["method"] = "lse"  # 35 references exceed most of these mode sets
        n_theta, n_phi = lambda_max + 1, 2 * lambda_max + 1
        doc["grid"] = {"n_theta": n_theta, "n_phi": n_phi}
        assert fileio.parse_config(doc).n_theta == n_theta
        for short in ({"n_theta": n_theta - 1, "n_phi": n_phi}, {"n_theta": n_theta, "n_phi": n_phi - 1}):
            doc["grid"] = short
            with pytest.raises(ConfigError, match="under-resolves"):
                fileio.parse_config(doc)

    @pytest.mark.parametrize("normalization", BAD_RESISTANCE_NORMALIZATIONS)
    def test_resistance_normalization_needs_a_positive_numeric_target(self, normalization):
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["reconstruction"]["normalization"] = normalization
        with pytest.raises(ConfigError, match=r"r_(meas|loss)"):
            fileio.parse_config(doc)


# Every field parse_config reads, as a key path into the document.
CONFIG_FIELDS = [
    ("wavelength",), ("mode_set",), ("mode_set", "lambda_max"), ("mode_set", "parity"),
    ("mode_set", "multipole"), ("grid",), ("grid", "n_theta"), ("grid", "n_phi"),
    ("references",), ("references", "length"), ("references", "current"),
    ("references", "count"), ("references", "orientations"), ("references", "optimize"),
    ("references", "optimize", "objective"), ("references", "optimize", "budget"),
    ("chamber",), ("chamber", "n_probes"), ("chamber", "n_paths"), ("chamber", "sigma_rho"),
    ("chamber", "seeds"), ("chamber", "seed"), ("test_antenna",), ("test_antenna", "length"),
    ("test_antenna", "theta0"), ("test_antenna", "phi0"), ("test_antenna", "current"),
    ("reconstruction",), ("reconstruction", "method"), ("reconstruction", "normalization"),
    ("reconstruction", "normalization", "mode"), ("reconstruction", "normalization", "r_meas"),
    ("reconstruction", "normalization", "r_loss"),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def config_documents(draw):
    """SMALL_CONFIG with optimizer and normalization sections, some fields
    replaced by arbitrary JSON values; now and then an arbitrary document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["references"]["optimize"] = {"objective": "cond-A", "budget": 10}
    doc["reconstruction"] = {
        "method": "lse",
        "normalization": {"mode": "radiation-resistance", "r_meas": 73.1, "r_loss": 1.0},
    }
    overrides = draw(st.dictionaries(st.sampled_from(CONFIG_FIELDS), JSON_VALUES, max_size=4))
    for path, value in overrides.items():
        section = doc
        for key in path[:-1]:
            section = section.get(key) if isinstance(section, dict) else None
        if isinstance(section, dict):
            section[path[-1]] = value
    return doc


class TestConfigProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=config_documents())
    def test_parse_config_returns_a_config_or_raises_config_error(self, doc):
        try:
            cfg = fileio.parse_config(doc)
        except ConfigError as exc:
            assert "\n" not in str(exc)
        else:
            assert isinstance(cfg, fileio.ExperimentConfig)


@st.composite
def buildable_configs(draw):
    """Configs near SMALL_CONFIG that parse_config accepts: every parity and
    multipole filter up to lambda_max 3, each method at a shape it can
    serve, reference lengths in [0.25, 1.5], listed orientations that may
    sit on the poles, up to 30 probes and paths and up to 5 seeds."""
    lambda_max, parity, multipole = draw(
        st.tuples(st.integers(1, 3), st.sampled_from(PARITY_FILTERS),
                  st.sampled_from(MULTIPOLE_FILTERS))
        .filter(lambda ms: build_mode_set(*ms).size > 0))  # even parity at L = 1 has none
    n_modes = build_mode_set(lambda_max, parity, multipole).size
    sizes = st.integers(n_modes, 30)
    method = draw(st.sampled_from(["inverse", "direct-weights", "lse"]))
    if method == "inverse":
        count = n_probes = n_modes
    elif method == "direct-weights":
        count = n_probes = draw(sizes)
    else:
        count, n_probes = draw(sizes), draw(sizes)
    references = {"length": draw(st.floats(0.25, 1.5)), "current": 1.0, "count": count}
    if draw(st.booleans()):
        theta = st.sampled_from([0.0, math.pi]) | st.floats(0.0, math.pi)
        references["orientations"] = draw(st.lists(
            st.tuples(theta, st.floats(0.0, 2.0 * math.pi)), min_size=count, max_size=count))
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["mode_set"] = {"lambda_max": lambda_max, "parity": parity, "multipole": multipole}
    doc["references"] = references
    doc["chamber"].update(n_probes=n_probes, n_paths=draw(sizes),
                          seeds=draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5)))
    doc["reconstruction"]["method"] = method
    return doc


class TestSetupProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=buildable_configs())
    def test_config_that_parses_also_builds(self, doc):
        fileio.parse_config(doc)
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
            path = Path(tmp) / "config.json"
            fileio.write_json(path, doc)
            code = cli.main(["calibrate", "--config", str(path), "--out", tmp])
        assert code == 0 or (code == 3 and stderr.getvalue().count("\n") == 1), (
            code, stderr.getvalue())


class TestRoundTrips:
    def test_coefficients(self, tmp_path):
        ms = build_mode_set(3, "odd", "electric")
        c = decompose(DipoleSpec(theta0=0.4, phi0=1.0).field(K), ms)
        path = tmp_path / "c.json"
        fileio.write_json(path, fileio.coefficients_to_dict(c))
        first = path.read_bytes()
        again = fileio.coefficients_from_dict(fileio.read_json(path))
        fileio.write_json(path, fileio.coefficients_to_dict(again))
        assert path.read_bytes() == first
        np.testing.assert_array_equal(again.values, c.values)

    def test_chamber(self, tmp_path):
        ch = sample_chamber(11, 5, 7, 0.001)
        path = tmp_path / "ch.json"
        fileio.write_json(path, fileio.chamber_to_dict(ch))
        doc = json.loads(path.read_text())
        assert doc["format"] == "chamber/1"
        assert (doc["n_probes"], doc["n_paths"], doc["sigma_rho"], doc["seed"]) == (5, 7, 0.001, 11)
        rho = np.array([[complex(re, im) for re, im in row] for row in doc["rho"]])
        np.testing.assert_array_equal(rho, ch.rho)
        for name in ("theta", "phi", "alpha"):
            np.testing.assert_array_equal(np.array(doc[name]), getattr(ch, name))

    def test_voltages(self, tmp_path):
        rng = np.random.default_rng(1)
        named = {"a": rng.normal(size=4) + 1j * rng.normal(size=4)}
        path = tmp_path / "v.json"
        fileio.write_json(path, fileio.voltages_to_dict(named))
        first = path.read_bytes()
        again = fileio.voltages_from_dict(fileio.read_json(path))
        fileio.write_json(path, fileio.voltages_to_dict(again))
        assert path.read_bytes() == first

    def test_pattern_csv(self, tmp_path):
        grid = SphereGrid(6, 8)
        field = DipoleSpec().field(K)(grid.theta_mesh, grid.phi_mesh)
        path = tmp_path / "p.csv"
        fileio.write_pattern_csv(path, grid.theta_mesh, grid.phi_mesh, field)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == fileio.PATTERN_HEADER
        e_theta, e_phi = (np.broadcast_to(e, grid.theta_mesh.shape).ravel()
                          for e in (field.e_theta, field.e_phi))
        expected = np.column_stack([
            grid.theta_mesh.ravel(), grid.phi_mesh.ravel(), e_theta.real, e_theta.imag,
            e_phi.real, e_phi.imag, np.sqrt(np.abs(e_theta) ** 2 + np.abs(e_phi) ** 2),
        ])
        np.testing.assert_array_equal(np.array(rows, dtype=float), expected)  # repr-exact cells

    def test_sweep_csv(self, tmp_path):
        rows = [(0.1, 0.2, 1e-3, -0.01, 2e-4, "ok"), (0.3, 0.4, float("nan"), 0.0, 0.0, "error:x")]
        path = tmp_path / "s.csv"
        fileio.write_sweep_csv(path, rows)
        first = path.read_bytes()
        fileio.write_sweep_csv(path, fileio.read_sweep_csv(path))
        assert path.read_bytes() == first

    def test_calibration(self, tmp_path):
        rng = np.random.default_rng(2)
        from multipat.recon import CalibrationSet

        cal = CalibrationSet(
            rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)),
            rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)),
            build_mode_set(3, "odd", "electric"),
        )
        path = tmp_path / "cal.json"
        fileio.write_json(path, fileio.calibration_to_dict(cal))
        first = path.read_bytes()
        again = fileio.calibration_from_dict(fileio.read_json(path))
        fileio.write_json(path, fileio.calibration_to_dict(again))
        assert path.read_bytes() == first


class TestCommands:
    def test_decompose_spectrum_structure(self, tmp_path):
        cfg_path = write_config(tmp_path, test_antenna={"theta0": 0.0, "phi0": 0.0})
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = fileio.read_json(out / "coefficients.json")
        coeffs = fileio.coefficients_from_dict(doc)
        mags = np.abs(coeffs.values)
        assert coeffs.mode_set.entries[int(np.argmax(mags))][:3] == ("E", 1, 0)
        spectrum = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "family,l,m,magnitude,normalized"
        assert len(spectrum) == 11
        # z-oriented case normalizes against itself: top normalized value is 1
        normalized = [float(line.split(",")[4]) for line in spectrum[1:]]
        assert max(normalized) == pytest.approx(1.0, rel=1e-12)

    def test_decompose_tilted_spreads_orders(self, tmp_path):
        cfg_path = write_config(tmp_path, test_antenna={"theta0": np.pi / 2, "phi0": 0.0})
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", str(cfg_path), "--out", str(out)]) == 0
        coeffs = fileio.coefficients_from_dict(fileio.read_json(out / "coefficients.json"))
        top = np.max(np.abs(coeffs.values))
        assert abs(coeffs.get("E", 1, 1)) > 0.1 * top
        assert abs(coeffs.get("E", 1, -1)) > 0.1 * top

    def test_decompose_single_degree_set(self, tmp_path):
        # electrically tiny dipole against a first-degree-only mode set
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["mode_set"] = {"lambda_max": 1, "parity": "all", "multipole": "electric"}
        doc["test_antenna"] = {"length": 0.05, "theta0": 0.4, "phi0": 1.0, "current": 1.0}
        doc["chamber"] = {"n_probes": 3, "n_paths": 3, "sigma_rho": 0.001, "seeds": [0]}
        doc["references"]["count"] = 3
        cfg_path = tmp_path / "config.json"
        fileio.write_json(cfg_path, doc)
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", str(cfg_path), "--out", str(out)]) == 0
        coeffs = fileio.coefficients_from_dict(fileio.read_json(out / "coefficients.json"))
        assert {e.l for e in coeffs.mode_set.entries} == {1}
        assert np.max(np.abs(coeffs.values)) > 0

    def test_reconstruct_with_resistance_normalization(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            reconstruction={
                "method": "lse",
                "normalization": {"mode": "radiation-resistance", "r_meas": 73.1},
            },
        )
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = fileio.read_json(out / "report.json")
        # the rescale pins 2P/|I|^2 at exactly r_meas
        assert report["reconstruction"]["radiation_resistance_ohm"] == pytest.approx(73.1)
        assert report["method"] == "lse"
        assert report["rms_field_error"] < 1e-2

    def test_simulate_replay_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "chamber.json").read_bytes() == (out2 / "chamber.json").read_bytes()
        assert (out1 / "voltages.json").read_bytes() == (out2 / "voltages.json").read_bytes()
        named = fileio.voltages_from_dict(fileio.read_json(out1 / "voltages.json"))
        assert len(named) == 11  # ten references plus the test antenna
        assert all(v.shape == (10,) for v in named.values())

    def test_reconstruct_report(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = fileio.read_json(out / "report.json")
        assert report["format"] == "report/1"
        assert report["rms_field_error"] < 1e-2
        assert report["theory"]["radiation_resistance_ohm"] == pytest.approx(73.08, abs=0.05)
        assert report["reconstruction"]["radiation_resistance_ohm"] == pytest.approx(73.1, abs=0.5)
        assert (out / "pattern_theory.csv").exists()
        assert (out / "pattern_reconstructed.csv").exists()
        assert (out / "coefficients_reconstructed.json").exists()

    def test_reconstruct_test_equals_reference(self, tmp_path):
        orientations = [[t, p] for t, p in
                        [(0.2, 0.1), (0.7, 1.1), (1.1, 2.4), (1.4, 3.6), (0.5, 4.8),
                         (1.5, 0.7), (0.9, 5.6), (1.2, 1.9), (0.35, 3.0), (1.55, 5.1)]]
        cfg_path = write_config(
            tmp_path,
            references={"orientations": orientations, "count": 10},
            test_antenna={"theta0": 0.7, "phi0": 1.1},
        )
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = fileio.read_json(out / "report.json")
        assert report["rms_field_error"] < 1e-3

    def test_singular_reference_set_exits_3(self, tmp_path):
        orientations = [[0.7, 1.1]] * 10  # ten identical dipoles
        cfg_path = write_config(tmp_path, references={"orientations": orientations, "count": 10})
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 3

    @pytest.mark.parametrize("argv", [["simulate"], ["calibrate"], ["reconstruct"],
                                      ["sweep", "--step", "90", "--degrees"]],
                             ids=["simulate", "calibrate", "reconstruct", "sweep"])
    def test_singular_reference_set_is_refused_at_setup(self, tmp_path, capsys, argv):
        orientations = [[0.1 * i, 0.5 * i] for i in range(1, 10)] + [[0.1, 0.5]]
        cfg_path = write_config(tmp_path, references={"orientations": orientations, "count": 10})
        out = tmp_path / "out"
        assert cli.main([argv[0], "--config", str(cfg_path), "--out", str(out), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: cond(A_R) = ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["reconstruct", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 2

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, chamber={"n_probes": 4})
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    @pytest.mark.parametrize("normalization", BAD_RESISTANCE_NORMALIZATIONS)
    def test_bad_resistance_normalization_exits_2(self, tmp_path, capsys, command, normalization):
        cfg_path = write_config(
            tmp_path, reconstruction={"method": "lse", "normalization": normalization}
        )
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid": {"n_theta": 3, "n_phi": 3}},
            {"grid": {"n_theta": 4, "n_phi": 6}},
            {"grid": {"n_theta": 3, "n_phi": 28}},
            {"wavelength": math.nan},
            {"wavelength": math.inf},
            {"wavelength": "one"},
            {"wavelength": "2"},
            {"wavelength": True},
            {"wavelength": 1e-160},
            {"wavelength": 1e160},
            {"chamber": {**SMALL_CONFIG["chamber"], "sigma_rho": math.nan}},
            {"chamber": {**SMALL_CONFIG["chamber"], "sigma_rho": -0.001}},
            {"chamber": {**SMALL_CONFIG["chamber"], "n_probes": "ten"}},
            {"references": {**SMALL_CONFIG["references"],
                            "optimize": {"objective": "cond-A", "budget": "many"}}},
            {"mode_set": [3, "odd", "electric"]},
            {"references": {**SMALL_CONFIG["references"], "length": -0.5}},
            {"references": {**SMALL_CONFIG["references"], "length": "half"}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "length": -0.5}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "length": 1e-10}},
            {"references": {**SMALL_CONFIG["references"], "length": 1e-10}},
            {"references": {**SMALL_CONFIG["references"], "length": 5e-5}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "theta0": 4.0}},
            {"references": {**SMALL_CONFIG["references"],
                            "orientations": [[-0.1, 0.0]] + [[0.1 * i, 0.5 * i] for i in range(1, 10)]}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "current": 0}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "current": 1e160}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "current": 1e-300}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "current": -1e21}},
            {"references": {**SMALL_CONFIG["references"], "current": math.nan}},
            {"references": {**SMALL_CONFIG["references"], "current": 1e160}},
            {"references": {**SMALL_CONFIG["references"], "current": "1"}},
            {"chamber": {**SMALL_CONFIG["chamber"], "n_probes": 10.9}},
            {"chamber": {**SMALL_CONFIG["chamber"], "n_probes": True}},
            {"chamber": {**SMALL_CONFIG["chamber"], "seeds": [0, 2.7]}},
            {"chamber": {key: value for key, value in SMALL_CONFIG["chamber"].items()
                         if key != "seeds"} | {"seed": 2.7}},
            {"chamber": {**SMALL_CONFIG["chamber"], "sigma_rho": "0.001"}},
            {"mode_set": {**SMALL_CONFIG["mode_set"], "lambda_max": 3.5}},
            {"grid": {"n_theta": 28.5, "n_phi": 28}},
            *IMPOSSIBLE_SHAPES.values(),
        ],
        ids=["grid-3x3", "grid-4x6", "grid-3x28", "wavelength-nan", "wavelength-inf",
             "wavelength-text", "wavelength-numeric-text", "wavelength-bool",
             "wavelength-1e-160", "wavelength-1e160", "sigma-nan", "sigma-negative",
             "n-probes-text", "budget-text", "mode-set-list", "ref-length-negative",
             "ref-length-text", "test-length-negative", "test-length-1e-10",
             "ref-length-1e-10", "ref-length-5e-5", "test-theta-outside",
             "ref-theta-outside", "test-current-zero", "test-current-1e160",
             "test-current-1e-300", "test-current--1e21", "ref-current-nan",
             "ref-current-1e160", "ref-current-text", "n-probes-10.9", "n-probes-bool",
             "seeds-2.7", "seed-2.7", "sigma-text", "lambda-max-3.5", "n-theta-28.5",
             *IMPOSSIBLE_SHAPES],
    )
    def test_unusable_config_exits_2(self, tmp_path, capsys, overrides):
        cfg_path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("overrides", IMPOSSIBLE_SHAPES.values(), ids=list(IMPOSSIBLE_SHAPES))
    def test_sweep_impossible_shape_exits_2(self, tmp_path, capsys, overrides):
        cfg_path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--step", "45", "--degrees"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (out / "sweep.csv").exists()

    def test_empty_mode_set_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, {"mode_set": {"lambda_max": 1, "parity": "even", "multipole": "electric"}},
            reconstruction={"method": "lse"},
        )
        out = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "no modes" in err and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["inverse", "lse"])
    def test_overflowing_sigma_rho_exits_2(self, tmp_path, capsys, method):
        # At 1e160 V_R^H V_R overflows: lse used to exit 3 and inverse to
        # print numpy overflow warnings and exit 0.
        cfg_path = write_config(
            tmp_path, chamber={"sigma_rho": 1e160}, reconstruction={"method": method}
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2 and not caught
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{fileio.SIGMA_RHO_MAX:g}" in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["inverse", "lse"])
    def test_physical_scale_corners_run(self, tmp_path, capsys, method):
        # Every corner of the wavelength and current bounds, at the default
        # and the largest sigma_rho: no overflow, no traceback.
        top = fileio.PHYSICAL_SCALE_MAX
        for sigma_rho, wavelength, ref_current, test_current in itertools.product(
                [0.001, fileio.SIGMA_RHO_MAX], [1.0 / top, top], [1.0 / top, top],
                [1.0 / top, -top]):
            cfg_path = write_config(
                tmp_path, {"wavelength": wavelength},
                references={"current": ref_current},
                chamber={"sigma_rho": sigma_rho},
                test_antenna={"current": test_current},
                reconstruction={"method": method},
            )
            out = tmp_path / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 0 or (code == 3 and err.count("\n") == 1), (code, err)
            if code == 0:
                report = json.loads((out / "report.json").read_text())
                assert math.isfinite(report["rms_field_error"])
                assert all(0.0 < abs(v) < math.inf for v in report["theory"].values())

    @pytest.mark.parametrize("method", ["inverse", "lse"])
    def test_dipole_length_bound_runs(self, tmp_path, capsys, method):
        # Both dipoles at the shortest accepted length: no traceback. The
        # short references leave the L = 3 modes barely excited, so
        # cond(A_R) may warn or, for LSE, refuse with exit 3.
        low = fileio.DIPOLE_LENGTH_MIN
        cfg_path = write_config(
            tmp_path, references={"length": low}, test_antenna={"length": low},
            reconstruction={"method": method},
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", r"cond\(A_R\)", UserWarning)
            code = cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 3 and err.count("\n") == 1), (code, err)
        if code == 0:
            report = json.loads((out / "report.json").read_text())
            assert math.isfinite(report["rms_field_error"])
            assert all(0.0 < abs(v) < math.inf for v in report["theory"].values())

    def test_dipole_length_bound_test_antenna_reconstructs(self, tmp_path):
        cfg_path = write_config(tmp_path, test_antenna={"length": fileio.DIPOLE_LENGTH_MIN})
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # A short dipole: D = 1.5.
        assert report["theory"]["directivity"] == pytest.approx(1.5, rel=1e-6)
        assert report["reconstruction"]["directivity"] == pytest.approx(1.5, rel=1e-2)

    def test_degrees_is_a_sweep_flag(self, tmp_path):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path),
                      "--degrees"])
        assert exc.value.code == 2

    def test_calibrate_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = fileio.read_json(out / "calibration.json")
        cal = fileio.calibration_from_dict(doc)
        assert cal.coefficient_matrix.shape == (10, 10)
        assert doc["condition_numbers"]["v_matrix"] > 1.0

    def test_sweep_shape_and_metadata(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main([
            "sweep", "--config", str(cfg_path), "--out", str(out),
            "--step", "45", "--degrees",
        ]) == 0
        rows = fileio.read_sweep_csv(out / "sweep.csv")
        assert len(rows) == 5 * 8  # 45-degree grid: 5 theta rows, 8 phi columns
        assert all(r[5] == "ok" for r in rows)
        meta = fileio.read_json(out / "sweep_meta.json")
        assert meta["grid_shape"] == [5, 8]
        assert len(meta["reference_orientations"]) == 10

    @staticmethod
    def _fail_third_orientation(monkeypatch, error):
        calls = []
        original = cli._reconstruct_test

        def failing(setup, spec):
            calls.append(spec)
            if len(calls) == 3:
                raise error
            return original(setup, spec)

        monkeypatch.setattr(cli, "_reconstruct_test", failing)
        return calls

    def test_sweep_turns_a_pattern_error_into_one_error_row(self, tmp_path, monkeypatch):
        calls = self._fail_third_orientation(monkeypatch, farfield.PatternError("unusable"))
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--step", "45", "--degrees"]) == 0
        rows = fileio.read_sweep_csv(out / "sweep.csv")
        assert len(rows) == len(calls) == 40
        failed = [r for r in rows if r[5] != "ok"]
        assert len(failed) == 1 and failed[0][5] == "error:unusable"
        assert (failed[0][0], failed[0][1]) == (calls[2].theta0, calls[2].phi0)
        assert all(math.isnan(v) for v in failed[0][2:5])

    def test_sweep_lets_a_plain_value_error_propagate(self, tmp_path, monkeypatch):
        self._fail_third_orientation(monkeypatch, ValueError("a bug, not a pattern"))
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                      "--step", "45", "--degrees"])
        assert not (out / "sweep.csv").exists()

    def test_reconstruct_pattern_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def unusable(coeffs, k):
            raise farfield.PatternError("directivity undefined for squared amplitude sum 0.0")

        monkeypatch.setattr(farfield, "directivity", unusable)
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical error: directivity undefined for squared amplitude sum 0.0\n"
        assert not (out / "report.json").exists()

    def test_sweep_bad_step_exits_2(self, tmp_path, monkeypatch):
        def no_setup(cfg):
            raise AssertionError("the set-up ran for an unusable step")

        monkeypatch.setattr(cli, "build_setup", no_setup)
        cfg_path = write_config(tmp_path)
        for step in ("-5", "nan", "1e-300"):
            assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                             "--step", step, "--degrees"]) == 2

    def test_plan_values(self, capsys):
        assert cli.main(["plan", "--kr", "1.5707963"]) == 0
        out = capsys.readouterr().out
        assert "truncation order: 2" in out
        assert "16" in out
        with pytest.warns(UserWarning):
            assert cli.main(["plan", "--kr", "1.5707963", "--p-tr", "-40"]) == 0
        out = capsys.readouterr().out
        assert "truncation order: 4" in out and "48" in out
        assert cli.main(["plan", "--kr", "30", "--p-tr", "-40"]) == 0
        assert "truncation order: 36" in capsys.readouterr().out

    def test_optimize_outputs(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            references={"count": 10, "optimize": {"objective": "cond-A", "budget": 40}},
        )
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out),
                         "--budget", "40"]) == 0
        doc = fileio.read_json(out / "orientations.json")
        assert len(doc["orientations"]) == 10
        trace = (out / "optimize_trace.csv").read_text().splitlines()
        assert trace[0] == "evaluations,objective"
        values = [float(line.split(",")[1]) for line in trace[1:]]
        assert values == sorted(values, reverse=True)  # monotone improvement

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "decompose"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out),
                         "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: chamber seed") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_budget_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out),
                         "--budget", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: optimize.budget") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1),
                         "--seed", "5"]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                         "--seed", "5"]) == 0
        ch1 = fileio.read_json(out1 / "chamber.json")
        assert ch1["seed"] == 5
        assert (out1 / "chamber.json").read_bytes() == (out2 / "chamber.json").read_bytes()


class TestPerAntennaPath:
    """reconstruct and sweep share _reconstruct_test and one theory summary
    per set-up."""

    def test_sweep_rows_equal_reconstruct_test(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--step", "45", "--degrees"]) == 0
        cfg = fileio.load_config(cfg_path)
        setup = cli.build_setup(cfg)
        for t0, p0, rms, rr_err, d_err, status in fileio.read_sweep_csv(out / "sweep.csv"):
            spec = DipoleSpec(cfg.test_length, t0, p0, cfg.test_current)
            _, expected_rms, theory, rec, _, _ = cli._reconstruct_test(setup, spec)
            assert status == "ok"
            assert rms == expected_rms
            assert rr_err == rec.radiation_resistance - theory.radiation_resistance
            assert d_err == rec.directivity - theory.directivity

    @pytest.mark.parametrize("argv", [["reconstruct"], ["sweep", "--step", "90", "--degrees"]],
                             ids=["reconstruct", "sweep"])
    def test_theory_summary_runs_once(self, tmp_path, monkeypatch, argv):
        calls = []
        original = farfield.field_radiation_summary

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(farfield, "field_radiation_summary", counted)
        cfg_path = write_config(tmp_path)
        assert cli.main([argv[0], "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                         *argv[1:]]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("theta0, phi0", [(np.pi / 4, np.pi / 3), (np.pi, 0.0)],
                             ids=["paper", "south-pole"])
    def test_theory_matches_tilted_twin(self, paper_setup, theta0, phi0):
        cfg = paper_setup.config
        tilted = DipoleSpec(cfg.test_length, theta0, phi0, cfg.test_current)
        direct = farfield.field_radiation_summary(
            tilted.field(cfg.k), paper_setup.grid, cfg.k, cfg.test_current
        )
        for name in ("power", "radiation_resistance", "directivity"):
            assert getattr(paper_setup.theory, name) == pytest.approx(
                getattr(direct, name), rel=1e-13, abs=0.0
            )

    def test_per_antenna_path_takes_no_condition_number(self, paper_setup, monkeypatch):
        counts = {"cond": 0, "solve": 0, "channel": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "cond", counted("cond", np.linalg.cond))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(recon, "channel_from_calibration",
                            counted("channel", recon.channel_from_calibration))
        cfg = paper_setup.config
        golden = math.pi * (3.0 - math.sqrt(5.0))  # Fibonacci lattice over the sphere
        for i in range(16):
            spec = DipoleSpec(cfg.test_length, math.acos(1.0 - (2 * i + 1) / 16),
                              (i * golden) % (2.0 * math.pi), cfg.test_current)
            cli._reconstruct_test(paper_setup, spec)
        assert counts == {"cond": 0, "solve": 16, "channel": 0}

    def test_build_setup_solves_the_channel_once(self, monkeypatch):
        calls = []
        original = recon.channel_from_calibration

        def counted(cal):
            calls.append(cal)
            return original(cal)

        monkeypatch.setattr(recon, "channel_from_calibration", counted)
        setup = cli.build_setup(fileio.parse_config(SMALL_CONFIG))
        assert len(calls) == 1 and calls[0] is setup.calibration

    def test_condition_numbers_are_those_of_the_matrices(self, paper_setup):
        a = paper_setup.calibration.coefficient_matrix
        v = paper_setup.calibration.voltage_matrix
        t = np.linalg.solve(a.T, v.T).T
        assert cli._condition_numbers(paper_setup) == {
            "a_matrix": float(np.linalg.cond(a)),
            "v_matrix": float(np.linalg.cond(v)),
            "channel": float(np.linalg.cond(t)),
        }

    def test_other_dipole_is_refused(self, paper_setup):
        cfg = paper_setup.config
        for length, current in [(0.4, cfg.test_current), (cfg.test_length, 2.0)]:
            spec = DipoleSpec(length, cfg.test_theta0, cfg.test_phi0, current)
            with pytest.raises(ValueError, match="differs"):
                cli._reconstruct_test(paper_setup, spec)


def setup_voltage_builder(monkeypatch, doc):
    """The V_R builder build_setup ranks the candidate chambers with, the
    config's reference dipoles, and the parsed config."""
    captured = []
    original = chamber.select_chamber

    def spy(seeds, builder, *args):
        captured.append(builder)
        return original(seeds, builder, *args)

    monkeypatch.setattr(chamber, "select_chamber", spy)
    cfg = fileio.parse_config({**doc, "chamber": {**doc["chamber"], "seeds": [0]}})
    setup = cli.build_setup(cfg)
    return captured[0], reference_dipole_set(setup.orientations, cfg.ref_length,
                                             cfg.ref_current), cfg


class TestReferenceVoltages:
    """build_setup takes each candidate's V_R from one batched dipole-field
    pass; it equals the per-reference voltages bit for bit."""

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, HIGHORDER_LSE_CONFIG],
                             ids=["small", "highorder-lse"])
    def test_batched_matrix_equals_per_reference_columns(self, monkeypatch, doc):
        build, refs, cfg = setup_voltage_builder(monkeypatch, doc)
        for seed in (0, 16, 77, 1234):
            ch = sample_chamber(seed, cfg.n_probes, cfg.n_paths, cfg.sigma_rho)
            v_r = build(ch)
            assert v_r.flags.c_contiguous
            assert np.array_equal(
                v_r, np.column_stack([probe_voltages(ch, spec.field(cfg.k)) for spec in refs]))

    def test_launch_direction_on_a_reference_axis(self, monkeypatch):
        build, refs, cfg = setup_voltage_builder(monkeypatch, SMALL_CONFIG)
        base = sample_chamber(3, cfg.n_probes, cfg.n_paths, cfg.sigma_rho)
        theta, phi = base.theta.copy(), base.phi.copy()
        theta[2, 5], phi[2, 5] = refs[4].theta0, refs[4].phi0
        ch = ChamberModel(cfg.n_probes, cfg.n_paths, cfg.sigma_rho, 3, base.rho, theta, phi,
                          base.alpha)
        on_axis = refs[4].field(cfg.k)(theta[2, 5], phi[2, 5])
        assert abs(on_axis.e_theta) < 1e-9 and abs(on_axis.e_phi) < 1e-9
        assert np.array_equal(
            build(ch), np.column_stack([probe_voltages(ch, spec.field(cfg.k)) for spec in refs]))

    def test_one_field_call_per_candidate(self, monkeypatch):
        calls = []
        original = dipole.dipole_field

        def counted(spec, theta, phi, *args):
            calls.append((spec, np.shape(theta)))
            return original(spec, theta, phi, *args)

        ranked = []
        select = chamber.select_chamber

        def spy(*args):
            ranked.append(select(*args))
            return ranked[-1]

        monkeypatch.setattr(dipole, "dipole_field", counted)
        monkeypatch.setattr(chamber, "select_chamber", spy)
        doc = {**SMALL_CONFIG, "chamber": {**SMALL_CONFIG["chamber"], "seeds": list(range(7))}}
        setup = cli.build_setup(fileio.parse_config(doc))
        refs = reference_dipole_set(setup.orientations, 0.5, 1.0)
        at_launch = [spec for spec, shape in calls if shape == (10, 10)]
        assert len(at_launch) == 7  # every candidate once; the winner is not rebuilt
        assert all(spec == refs for spec in at_launch)
        # The calibration holds the matrix the winner was ranked by, bit for bit.
        (winner, v_ranked), = ranked
        assert setup.chamber is winner
        v_cal = setup.calibration.voltage_matrix
        assert v_cal.shape == v_ranked.shape and v_cal.tobytes() == v_ranked.tobytes()


class TestClosedFormReferences:
    """The set-up's A_R is planner.dipole_coefficient_matrix: one upright
    decomposition, no per-reference quadrature."""

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, HIGHORDER_LSE_CONFIG],
                             ids=["small", "highorder-lse"])
    def test_setup_matrix_matches_per_reference_quadrature(self, doc):
        cfg = fileio.parse_config(doc)
        setup = cli.build_setup(cfg)
        ref = quadrature_matrix(setup.orientations, cfg.mode_set(), cfg.ref_length,
                                cfg.ref_current, grid=setup.grid, k=cfg.k)
        a = setup.calibration.coefficient_matrix
        assert np.max(np.abs(a - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_setup_decomposes_once(self, monkeypatch):
        calls = []
        original = farfield.decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(farfield, "decompose", counted)
        cli.build_setup(fileio.parse_config(SMALL_CONFIG))
        assert len(calls) == 1

    def test_cond_a_is_the_optimizer_objective(self, paper_config, paper_setup):
        result = planner.optimize_reference_orientations(
            planner.fibonacci_orientations(paper_config.ref_count),
            objective=paper_config.optimize_objective,
            budget=paper_config.optimize_budget,
            mode_set=paper_config.mode_set(),
            length=paper_config.ref_length,
        )
        assert paper_setup.orientations == result.orientations
        assert paper_setup.calibration.cond_a == result.objective_value


class TestConsoleScript:
    def test_runtime_does_not_import_scipy(self):
        # scipy is a test dependency only; loading it costs ~19 MB resident.
        src = str(Path(multipat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import multipat.cli, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_entry_point_runs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "multipat.cli", "plan", "--kr", "3.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "truncation order: 3" in proc.stdout
