"""CLI commands, file formats, exit codes, and replay determinism."""
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multipat
from multipat import chamber, cli, dipole, farfield, fileio, planner, recon
from multipat.chamber import ChamberModel, probe_voltages, sample_chamber
from multipat.dipole import DipoleSpec, reference_dipole_set
from multipat.farfield import SphereGrid, decompose
from multipat.fileio import ConfigError
from multipat.vsh import MULTIPOLE_FILTERS, PARITY_FILTERS, build_mode_set
import test_acceptance
import test_bench_contract
import test_farfield
from conftest import PAPER_CONFIG
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
# references.count = n_probes = the mode count (10); direct-weights fits its
# complex weights by least squares, so it needs n_probes >= references.count;
# lse's real weights need references.count <= 2 n_probes.
IMPOSSIBLE_SHAPES = {
    "inverse-count-12": {"references": {**SMALL_CONFIG["references"], "count": 12}},
    "inverse-probes-12": {"chamber": {**SMALL_CONFIG["chamber"], "n_probes": 12}},
    "direct-weights-count-12": {
        "references": {**SMALL_CONFIG["references"], "count": 12},
        "reconstruction": {"method": "direct-weights", "normalization": None},
    },
    "lse-count-25": {
        "references": {**SMALL_CONFIG["references"], "count": 25},
        "reconstruction": {"method": "lse", "normalization": None},
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


def read_modes(path):
    """A coefficients.json's modes list as {(family, l, m): complex amplitude}."""
    return {(m["family"], m["l"], m["m"]): complex(*m["value"])
            for m in fileio.read_json(path)["modes"]}


# A misspelt key in every section parse_config reads: (section, key, value).
MISSPELT_KEYS = [
    ((), "wavelenght", 1.0),
    (("mode_set",), "multipol", "electric"),
    (("grid",), "ntheta", 28),
    (("references",), "cout", 10),
    (("references", "optimize"), "budjet", 10),
    (("chamber",), "n_probe", 30),
    (("test_antenna",), "theta", 0.3),
    (("reconstruction",), "methd", "lse"),
    (("reconstruction", "normalization"), "r_mes", 73.1),
]


def every_section_config():
    """SMALL_CONFIG with every section parse_config reads."""
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["grid"] = {"n_theta": 28, "n_phi": 28}
    doc["references"]["optimize"] = {"objective": "cond-A", "budget": 10}
    doc["reconstruction"] = {
        "method": "lse", "normalization": {"mode": "radiation-resistance", "r_meas": 73.1}}
    return doc


class TestUnknownKeys:
    """A key parse_config does not read is refused, not dropped: exit 2 with
    one line naming the section and the key, before the set-up runs."""

    def run(self, doc, tmp_path, capsys, monkeypatch):
        path = tmp_path / "config.json"
        fileio.write_json(path, doc)
        monkeypatch.setattr(cli, "build_setup", lambda cfg: pytest.fail("the set-up ran"))
        assert cli.main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        return capsys.readouterr().err

    def test_every_section_config_parses(self):
        assert fileio.parse_config(every_section_config()).normalization["r_meas"] == 73.1

    @pytest.mark.parametrize("section, key, value", MISSPELT_KEYS,
                             ids=[".".join(s) or "top" for s, _, _ in MISSPELT_KEYS])
    def test_misspelt_key_exits_2(self, tmp_path, capsys, monkeypatch, section, key, value):
        doc = every_section_config()
        target = doc
        for name in section:
            target = target[name]
        target[key] = value
        err = self.run(doc, tmp_path, capsys, monkeypatch)
        where = ".".join(section) or "the config"
        assert err == f"config error: unknown key {key!r} in {where}\n"

    def test_seed_with_seeds_exits_2(self, tmp_path, capsys, monkeypatch):
        doc = every_section_config()
        doc["chamber"]["seed"] = 4
        err = self.run(doc, tmp_path, capsys, monkeypatch)
        assert err == "config error: chamber takes seed or seeds, not both\n"

    @pytest.mark.parametrize("value", [False, 0, "", [], True, 1],
                             ids=["false", "0", "empty-string", "empty-list", "true", "1"])
    def test_optimize_that_is_not_an_object_exits_2(self, tmp_path, capsys, monkeypatch, value):
        # A falsy value is not "no optimizer": only null or a missing key is.
        doc = every_section_config()
        doc["references"]["optimize"] = value
        err = self.run(doc, tmp_path, capsys, monkeypatch)
        assert err == f"config error: optimize must be a JSON object, got {value!r}\n"

    def test_null_optimize_is_no_optimizer(self):
        doc = every_section_config()
        doc["references"]["optimize"] = None
        cfg = fileio.parse_config(doc)
        assert cfg.optimize_objective is None and cfg.optimize_budget == 0


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
        # Fewer paths than modes is a usable chamber; no path at all is not.
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["chamber"]["n_paths"] = 6
        assert fileio.parse_config(doc).n_paths == 6
        doc["chamber"]["n_paths"] = 0
        with pytest.raises(ConfigError, match="n_paths"):
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
        # Up to MAX_LAMBDA / pi wavelengths: a dipole of length l needs about pi l modes.
        low, top = fileio.DIPOLE_LENGTH_MIN, fileio.DIPOLE_LENGTH_MAX
        assert top == fileio.MAX_LAMBDA / math.pi
        doc = json.loads(json.dumps(SMALL_CONFIG))
        for length in (low, top):
            doc["references"]["length"] = doc["test_antenna"]["length"] = length
            cfg = fileio.parse_config(doc)
            assert (cfg.ref_length, cfg.test_length) == (length, length)
        for section in ("references", "test_antenna"):
            for bad_length in (0.5 * low, math.nextafter(top, math.inf)):
                bad = json.loads(json.dumps(doc))
                bad[section]["length"] = bad_length
                with pytest.raises(ConfigError, match=rf"{section}\.length must be at least "
                                                      rf"0\.0001 and at most {re.escape(str(top))} "
                                                      rf"wavelengths, got {bad_length}$"):
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

    def test_grid_size_bound(self):
        top = fileio.MAX_GRID
        doc = {"mode_set": {"lambda_max": fileio.MAX_LAMBDA}}
        assert fileio.parse_config(doc).n_theta == 416  # the default grid of MAX_LAMBDA
        for n_theta, n_phi in [(top, top), (416, top), (top, 416)]:
            doc["grid"] = {"n_theta": n_theta, "n_phi": n_phi}
            cfg = fileio.parse_config(doc)
            assert (cfg.n_theta, cfg.n_phi) == (n_theta, n_phi)
        assert top == 832  # the doubled convergence check of the default grid
        # Parsed only: SphereGrid(100000, ...) would ask leggauss for 80 GB.
        for name, value in [("n_theta", top + 1), ("n_phi", top + 1),
                            ("n_theta", 100000), ("n_phi", 10**30)]:
            doc["grid"] = {"n_theta": 416, "n_phi": 416, name: value}
            with pytest.raises(ConfigError, match=rf"^{name} = {value} is outside \[0, 832\]$"):
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
    sit on the poles, up to 30 probes, 1 to 30 paths and up to 5 seeds."""
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
        count = draw(sizes)
        n_probes = draw(st.integers(count, 30))
    else:  # parse_config refuses more than 2 n_probes real reference weights
        n_probes = draw(sizes)
        count = draw(st.integers(n_modes, min(30, 2 * n_probes)))
    references = {"length": draw(st.floats(0.25, 1.5)), "current": 1.0, "count": count}
    if draw(st.booleans()):
        theta = st.sampled_from([0.0, math.pi]) | st.floats(0.0, math.pi)
        references["orientations"] = draw(st.lists(
            st.tuples(theta, st.floats(0.0, 2.0 * math.pi)), min_size=count, max_size=count))
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["mode_set"] = {"lambda_max": lambda_max, "parity": parity, "multipole": multipole}
    doc["references"] = references
    doc["chamber"].update(n_probes=n_probes, n_paths=draw(st.integers(1, 30)),
                          seeds=draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5)))
    doc["reconstruction"]["method"] = method
    return doc


class TestSetupProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=buildable_configs())
    def test_config_that_parses_also_builds(self, doc):
        cfg = fileio.parse_config(doc)
        stderr = io.StringIO()
        with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            path = Path(tmp) / "config.json"
            fileio.write_json(path, doc)
            code = cli.main(["calibrate", "--config", str(path), "--out", tmp])
        assert code == 0 or (code == 3 and stderr.getvalue().count("\n") == 1), (
            code, stderr.getvalue())
        # A dipole too long for the mode set still builds, and says so once.
        too_long = [key for key, length in (("test_antenna", cfg.test_length),
                                            ("references", cfg.ref_length))
                    if math.pi * length > cfg.lambda_max + cli.ORDER_MARGIN]
        assert [str(w.message).split(".")[0] for w in caught
                if "is too long for lambda_max" in str(w.message)] == too_long


class TestLongDipoleWarning:
    """build_setup warns, one line per key, of a dipole whose pi * length
    exceeds lambda_max + cli.ORDER_MARGIN: its pattern outgrows the modes."""

    @staticmethod
    def length_warnings(doc):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.build_setup(fileio.parse_config(doc))
        return [str(w.message) for w in caught if "is too long for lambda_max" in str(w.message)]

    @pytest.mark.parametrize("test_length, ref_length, expected", [
        (1.0, 0.5, []),
        (1.2, 0.5, ["test_antenna.length 1.2 is too long for lambda_max 3"]),
        (0.5, 1.2, ["references.length 1.2 is too long for lambda_max 3"]),
        (1.5, 1.2, ["test_antenna.length 1.5 is too long for lambda_max 3",
                    "references.length 1.2 is too long for lambda_max 3"]),
    ], ids=["1.0-silent", "test-1.2", "references-1.2", "both"])
    def test_one_warning_per_key(self, test_length, ref_length, expected):
        # SMALL_CONFIG is L = 3: pi * 1.0 = 3.14 is within 3.5, pi * 1.2 = 3.77 is not.
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["test_antenna"]["length"], doc["references"]["length"] = test_length, ref_length
        assert self.length_warnings(doc) == expected

    @pytest.mark.parametrize("doc", [PAPER_CONFIG, HIGHORDER_LSE_CONFIG, SMALL_CONFIG,
                                     test_bench_contract.TINY_CONFIG,
                                     test_bench_contract.TINY_LSE_CONFIG],
                             ids=["paper", "highorder-lse", "small", "tiny", "tiny-lse"])
    def test_the_study_configs_are_silent(self, doc):
        assert self.length_warnings(json.loads(json.dumps(doc))) == []


def paper_setup_with(method, **chamber):
    """The paper set-up with another method and chamber shape."""
    doc = json.loads(json.dumps(PAPER_CONFIG))
    doc["chamber"].update(chamber)
    doc["reconstruction"]["method"] = method
    return cli.build_setup(fileio.parse_config(doc))


class TestChamberShapes:
    """Set-ups that are not square, or have fewer paths than modes, still
    reconstruct the paper antenna."""

    def test_direct_weights_with_more_probes_than_references(self):
        setup = paper_setup_with("direct-weights", n_probes=12)
        assert setup.calibration.voltage_matrix.shape == (12, 10)
        cfg = setup.config
        for theta0, phi0 in planner.fibonacci_orientations(16):
            spec = DipoleSpec(cfg.test_length, theta0, phi0, cfg.test_current)
            result, rms, theory, rec, _, _ = cli._reconstruct_test(setup, spec)
            assert result.method == "direct-weights" and rms < 0.05
            assert abs(rec.radiation_resistance - theory.radiation_resistance) <= 0.5
            assert abs(rec.directivity - theory.directivity) <= 0.01

    def test_one_path_per_probe_meets_criterion_3(self):
        test_acceptance.test_criterion_3_orientation_sweep(paper_setup_with("inverse", n_paths=1))

    def test_lse_with_more_weights_than_real_equations_exits_2_before_set_up(
            self, tmp_path, capsys, monkeypatch):
        # Re(V_R^H V_R) has rank <= 2 n_probes = 20, so 25 real weights are not unique.
        doc = {**PAPER_CONFIG, "references": {**PAPER_CONFIG["references"], "count": 25},
               "reconstruction": {"method": "lse", "normalization": None}}
        path = tmp_path / "config.json"
        fileio.write_json(path, doc)
        monkeypatch.setattr(cli, "build_setup", lambda cfg: pytest.fail("the set-up ran"))
        assert cli.main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: lse") and err.count("\n") == 1

    def test_lse_with_as_many_weights_as_real_equations_parses(self):
        doc = {**PAPER_CONFIG, "references": {**PAPER_CONFIG["references"], "count": 20},
               "reconstruction": {"method": "lse", "normalization": None}}
        assert fileio.parse_config(doc).ref_count == 20 == 2 * PAPER_CONFIG["chamber"]["n_probes"]


class TestRoundTrips:
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


class TestCommands:
    def test_decompose_spectrum_structure(self, tmp_path):
        cfg_path = write_config(tmp_path, test_antenna={"theta0": 0.0, "phi0": 0.0})
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", str(cfg_path), "--out", str(out)]) == 0
        modes = read_modes(out / "coefficients.json")
        assert max(modes, key=lambda mode: abs(modes[mode])) == ("E", 1, 0)
        spectrum = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "family,l,m,magnitude,normalized"
        assert len(spectrum) == 11
        # z-oriented case normalizes against itself: top normalized value is 1
        normalized = [float(line.split(",")[4]) for line in spectrum[1:]]
        assert max(normalized) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_decompose_tilted_spreads_orders(self, tmp_path):
        cfg_path = write_config(tmp_path, test_antenna={"theta0": np.pi / 2, "phi0": 0.0})
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", str(cfg_path), "--out", str(out)]) == 0
        modes = read_modes(out / "coefficients.json")
        top = max(abs(value) for value in modes.values())
        assert abs(modes["E", 1, 1]) > 0.1 * top
        assert abs(modes["E", 1, -1]) > 0.1 * top

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
        modes = read_modes(out / "coefficients.json")
        assert {l for _, l, _ in modes} == {1}
        assert max(abs(value) for value in modes.values()) > 0

    @pytest.mark.parametrize("mode_set", [
        {"lambda_max": 2, "parity": "even", "multipole": "electric"},
        {"lambda_max": 3, "parity": "all", "multipole": "magnetic"},
    ], ids=["even-electric-2", "magnetic-3"])
    def test_decompose_on_modes_the_dipole_cannot_excite_exits_3(self, tmp_path, capsys,
                                                                 mode_set):
        # A centre-fed dipole radiates only odd electric modes; these sets
        # capture rounding noise, about 1e-30 of its power.
        doc = {**PAPER_CONFIG, "mode_set": mode_set, "references": {}, "chamber": {}}
        path = tmp_path / "config.json"
        fileio.write_json(path, doc)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", farfield.ConvergenceWarning)
            assert cli.main(["decompose", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: the mode set captures ") and err.count("\n") == 1
        assert float(err.split()[6]) < np.finfo(float).eps
        assert list(out.iterdir()) == []

    def test_decompose_paper_outputs_are_the_quadrature_coefficients(self, tmp_path):
        path = tmp_path / "config.json"
        fileio.write_json(path, PAPER_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", str(path), "--out", str(out)]) == 0
        cfg = fileio.parse_config(PAPER_CONFIG)
        grid, ms = SphereGrid(cfg.n_theta, cfg.n_phi), cfg.mode_set()
        test = DipoleSpec(cfg.test_length, cfg.test_theta0, cfg.test_phi0, cfg.test_current)
        coeffs = decompose(test.field(cfg.k), ms, grid)
        assert (out / "coefficients.json").read_text() == fileio.dumps(
            fileio.coefficients_to_dict(coeffs))
        peak = float(np.abs(decompose(DipoleSpec(cfg.test_length).field(cfg.k), ms,
                                      grid).values).max())
        rows = [f"{e.family},{e.l},{e.m},{float(abs(v))!r},{float(abs(v)) / peak!r}"
                for e, v in zip(ms.entries, coeffs.values)]
        assert (out / "spectrum.csv").read_text().splitlines()[1:] == rows

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
        antennas = fileio.read_json(out1 / "voltages.json")["antennas"]
        assert len(antennas) == 11  # ten references plus the test antenna
        assert all(np.shape(a["voltages"]) == (10, 2) for a in antennas)

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

    @pytest.mark.parametrize("kind", ["missing", "directory", "utf-16", "latin-1", "utf-8-bom",
                                      "deep", "long-integer"])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        text = json.dumps({**SMALL_CONFIG, "note": "\u00e9"}, ensure_ascii=False)  # not ASCII
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes({"utf-16": b"\xff\xfe" + text.encode("utf-16-le"),
                              "latin-1": text.encode("latin-1"),
                              "utf-8-bom": b"\xef\xbb\xbf" + text.encode(),
                              # past the parser's nesting depth and int digit limits
                              "deep": b"[" * 100_000 + b"]" * 100_000,
                              "long-integer": b'{"wavelength": 1' + b"0" * 5000 + b"}"}[kind])
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes('{"note": "\u00e9\u03bb"}'.encode())
        assert fileio.read_json(path) == {"note": "\u00e9\u03bb"}

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_the_setup(
            self, tmp_path, capsys, monkeypatch, command, below):
        cfg_path, taken = write_config(tmp_path), tmp_path / "taken"
        taken.write_text("kept")
        monkeypatch.setattr(cli, "build_setup", lambda cfg: pytest.fail("the set-up ran"))
        out = taken / "out" if below else taken
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out} cannot be created: ")
        assert err.count("\n") == 1
        assert taken.read_text() == "kept"

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
            {"test_antenna": {**SMALL_CONFIG["test_antenna"], "length": 1e6}},
            {"test_antenna": {**SMALL_CONFIG["test_antenna"],
                              "length": math.nextafter(fileio.DIPOLE_LENGTH_MAX, math.inf)}},
            {"references": {**SMALL_CONFIG["references"],
                            "length": math.nextafter(fileio.DIPOLE_LENGTH_MAX, math.inf)}},
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
            {"grid": {"n_theta": fileio.MAX_GRID + 1, "n_phi": 28}},
            {"grid": {"n_theta": 28, "n_phi": fileio.MAX_GRID + 1}},
            {"chamber": {**SMALL_CONFIG["chamber"], "n_paths": 0}},
            {"chamber": {**SMALL_CONFIG["chamber"], "n_paths": 10**12}},
            {"chamber": {**SMALL_CONFIG["chamber"], "n_probes": 10**12},
             "reconstruction": {"method": "lse", "normalization": None}},
            {"references": {**SMALL_CONFIG["references"], "count": 10**12},
             "reconstruction": {"method": "lse", "normalization": None}},
            {"references": {**SMALL_CONFIG["references"], "count": 0},
             "reconstruction": {"method": "lse", "normalization": None}},
            *IMPOSSIBLE_SHAPES.values(),
        ],
        ids=["grid-3x3", "grid-4x6", "grid-3x28", "wavelength-nan", "wavelength-inf",
             "wavelength-text", "wavelength-numeric-text", "wavelength-bool",
             "wavelength-1e-160", "wavelength-1e160", "sigma-nan", "sigma-negative",
             "n-probes-text", "budget-text", "mode-set-list", "ref-length-negative",
             "ref-length-text", "test-length-negative", "test-length-1e-10",
             "ref-length-1e-10", "ref-length-5e-5", "test-length-1e6",
             "test-length-past-max", "ref-length-past-max", "test-theta-outside",
             "ref-theta-outside", "test-current-zero", "test-current-1e160",
             "test-current-1e-300", "test-current--1e21", "ref-current-nan",
             "ref-current-1e160", "ref-current-text", "n-probes-10.9", "n-probes-bool",
             "seeds-2.7", "seed-2.7", "sigma-text", "lambda-max-3.5", "n-theta-28.5",
             "n-theta-833", "n-phi-833", "n-paths-0", "n-paths-1e12", "lse-n-probes-1e12",
             "lse-count-1e12", "lse-count-0", *IMPOSSIBLE_SHAPES],
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

    def test_set_up_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # An accepted set-up can still be too large to allocate, e.g.
        # lambda_max = 100 all-both on the 832 x 832 grid; the failure is
        # raised here instead of allocated.
        message = "Unable to allocate 210. GiB for an array with shape (20400, 692224)"

        def out_of_memory(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "build_setup", out_of_memory)
        cfg_path = write_config(tmp_path)
        assert cli.main(["reconstruct", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: the set-up does not fit in memory: {message}\n")

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
        assert np.shape(doc["coefficient_matrix"]) == (10, 10, 2)
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

    @pytest.mark.parametrize("argv, message", [
        (["--kr", "-1"], "no truncation order for these inputs: kR must be positive"),
        (["--kr", "0", "--p-tr", "-40"],
         "no truncation order for these inputs: kR must be positive"),
        (["--kr", "nan"], "--kr must be finite, got nan"),
        (["--kr", "inf"], "--kr must be finite, got inf"),
        (["--kr=-inf", "--p-tr", "-40"], "--kr must be finite, got -inf"),
        (["--kr", "30", "--p-tr", "nan"], "--p-tr must be finite, got nan"),
        (["--kr", "30", "--p-tr=-inf"], "--p-tr must be finite, got -inf"),
        (["--kr", "30", "--p-tr", "-40", "--p-r", "inf"], "--p-r must be finite, got inf"),
        (["--kr", "30", "--p-r", "nan"], "--p-r must be finite, got nan"),
        (["--kr", "1", "--p-tr", "1e6"],
         "no truncation order for these inputs: lambda_max must be >= 1"),
        (["--kr", "1e308", "--p-tr=-1e308"],
         "no truncation order for these inputs: cannot convert float infinity to integer"),
    ])
    def test_plan_refuses_bad_numbers(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Jensen rule's validity-range warnings
            assert cli.main(["plan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n" and captured.out == ""

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

    def test_optimize_reports_the_evaluations_used(self, tmp_path, monkeypatch, capsys):
        # Three references for the three L = 1 electric modes: the simplex
        # spread test ends the search well before the budget.
        cfg_path = write_config(
            tmp_path,
            mode_set={"lambda_max": 1, "parity": "all"},
            references={"count": 3},
            chamber={"n_probes": 3, "n_paths": 3},
        )
        calls, matrices = [], []
        search, builder = planner.nelder_mead, planner.dipole_coefficient_matrix

        def counted_search(fun, x0, budget):
            def counted(x):
                calls.append(x)
                return fun(x)
            return search(counted, x0, budget)

        def counted_builder(*args, **kwargs):
            matrices.append(args)
            return builder(*args, **kwargs)

        monkeypatch.setattr(planner, "nelder_mead", counted_search)
        monkeypatch.setattr(planner, "dipole_coefficient_matrix", counted_builder)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out),
                         "--budget", "1000"]) == 0
        used = len(calls) - 1  # the baseline evaluation is not counted
        assert 0 < used < 1000
        # One builder call scores every best-so-far point of the trace, the
        # three orientations of each side by side; no point reaches cond 100.
        trace = (out / "optimize_trace.csv").read_text().splitlines()[1:]
        assert len(trace) > 1
        assert [len(args[0]) for args in matrices] == [3 * len(trace)]
        start, end = (float(row.split(",")[1]) for row in (trace[0], trace[-1]))
        assert capsys.readouterr().out == (f"cond-A improved from {start:.4g} to {end:.4g} "
                                           f"after {used} of 1000 evaluations\n")

    @pytest.mark.parametrize("optimize, argv", [
        ({"objective": "cond-A", "budget": 0}, []),
        ({"objective": "cond-A", "budget": 40}, ["--budget", "0"]),
    ], ids=["config", "option"])
    def test_optimize_budget_of_0_runs_no_evaluation(self, tmp_path, capsys, optimize, argv):
        cfg_path = write_config(tmp_path, references={"optimize": optimize})
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                         *argv]) == 0
        assert capsys.readouterr().out == "cond-A stayed at 62.75 after 0 of 0 evaluations\n"
        assert (tmp_path / "out" / "optimize_trace.csv").read_text().count("\n") == 2

    def test_optimize_without_a_section_takes_1000_evaluations(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.endswith(" of 1000 evaluations\n")

    def test_optimize_skips_a_singular_mode_set(self, tmp_path):
        # A centre-fed dipole radiates no magnetic or even-degree mode, so
        # no orientation makes this A_R invertible: one warning, no search.
        cfg_path = write_config(
            tmp_path,
            mode_set={"lambda_max": 2, "parity": "all", "multipole": "both"},
            references={"count": 16},
            chamber={"n_probes": 16, "n_paths": 16},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "multipat.cli", "optimize", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--budget", "40"],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: the mode set has magnetic")
        # Nothing moved, so nothing is said to have improved.
        assert proc.stdout == "cond-A stayed at inf after 0 of 40 evaluations\n"
        doc = fileio.read_json(tmp_path / "out" / "orientations.json")
        assert doc["orientations"] == [list(planner.wrap_orientation(t, p))
                                       for t, p in planner.fibonacci_orientations(16)]

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
        # The tilted twin's own expansion at L = 13, where the half-wave
        # dipole's modes have decayed to rounding: the same P, R_r and D.
        cfg = paper_setup.config
        tilted = DipoleSpec(cfg.test_length, theta0, phi0, cfg.test_current)
        coeffs = farfield.decompose(tilted.field(cfg.k), build_mode_set(13, "odd", "electric"))
        expansion = farfield.radiation_summary(coeffs, cfg.k, cfg.test_current)
        for name in ("power", "radiation_resistance", "directivity"):
            assert getattr(paper_setup.theory, name) == pytest.approx(
                getattr(expansion, name), rel=1e-13, abs=0.0
            )

    def test_theory_on_the_coarsest_paper_grid(self, tmp_path):
        # 4 x 7, the smallest grid the paper's L = 3 accepts, with a 1.5
        # wavelength test dipole: the theory never reads the grid.
        doc = json.loads(json.dumps(PAPER_CONFIG))
        doc["grid"] = {"n_theta": 4, "n_phi": 7}
        doc["test_antenna"]["length"] = 1.5
        fileio.write_json(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match=r"^test_antenna\.length 1\.5 is too long") as caught:
            assert cli.main(["reconstruct", "--config", str(tmp_path / "config.json"),
                             "--out", str(out)]) == 0
        assert len(caught) == 1
        theory = json.loads((out / "report.json").read_text())["theory"]
        assert theory["radiation_resistance_ohm"] == pytest.approx(
            test_farfield.dipole_resistance(1.5), rel=1e-12, abs=0.0)
        assert theory["directivity"] == pytest.approx(
            test_farfield.dipole_directivity(1.5), rel=1e-12, abs=0.0)
        assert theory["radiation_resistance_ohm"] == pytest.approx(105.4212498, rel=1e-9)
        assert theory["directivity"] == pytest.approx(2.226337689, rel=1e-9)

    @pytest.mark.parametrize("length", [0.5, 1.5])
    def test_theory_is_the_same_on_every_grid(self, tmp_path, length):
        texts = set()
        for n_theta, n_phi in [(4, 7), (28, 28), (60, 81)]:
            cfg_path = write_config(tmp_path, {"grid": {"n_theta": n_theta, "n_phi": n_phi}},
                                    test_antenna={"length": length})
            out = tmp_path / f"out-{n_theta}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
            # The 1.5 wavelength dipole is too long for L = 3, and says so.
            assert [str(w.message).split()[0] for w in caught] == ["test_antenna.length"] * (
                length == 1.5)
            texts.add(fileio.dumps(json.loads((out / "report.json").read_text())["theory"]))
        assert len(texts) == 1

    def test_no_field_call_and_one_probe_call(self, paper_setup, monkeypatch):
        # The probe voltages and the truth field on the grid are both
        # dipole.grid_field, on the chamber's and the grid's cached trig,
        # which calls no dipole_field; the voltages are one probe_voltages call.
        calls = {"dipole_field": 0, "probe_voltages": 0}
        for module, name in ((dipole, "dipole_field"), (chamber, "probe_voltages")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = paper_setup.config
        cli._reconstruct_test(paper_setup, DipoleSpec(cfg.test_length, 1.2, 0.4, cfg.test_current))
        assert calls == {"dipole_field": 0, "probe_voltages": 1}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n_probes=st.integers(1, 5), n_paths=st.integers(1, 5),
           n_theta=st.integers(2, 8), n_phi=st.integers(2, 9), theta0=st.floats(0.0, math.pi),
           phi0=st.floats(-7.0, 7.0), length=st.floats(0.05, 1.5),
           on=st.sampled_from([None, "launch", "node"]))
    @example(seed=0, n_probes=3, n_paths=4, n_theta=5, n_phi=6, theta0=0.0, phi0=0.0,
             length=0.5, on=None)
    @example(seed=1, n_probes=2, n_paths=3, n_theta=4, n_phi=7, theta0=math.pi, phi0=0.3,
             length=1.5, on=None)
    @example(seed=2, n_probes=3, n_paths=4, n_theta=5, n_phi=6, theta0=0.0, phi0=0.0,
             length=1.0, on="launch")
    @example(seed=3, n_probes=3, n_paths=4, n_theta=5, n_phi=6, theta0=0.0, phi0=0.0,
             length=1.0, on="node")
    def test_one_pass_field_equals_the_two_grid_field_calls(self, seed, n_probes, n_paths,
                                                             n_theta, n_phi, theta0, phi0,
                                                             length, on):
        # MeasurementSetup.directions holds the chamber's launch trig, then
        # the grid's: one grid_field pass over it is the two separate passes,
        # bit for bit, also where the axis lies on a launch direction or on
        # a grid node and the bracket takes its limit branch.
        ch, grid = sample_chamber(seed, n_probes, n_paths), SphereGrid(n_theta, n_phi)
        setup = cli.MeasurementSetup(None, grid, [], None, None,
                                     chamber.ChamberSelection(ch, None, [], 0), None, None)
        if on is not None:
            mesh = (ch.theta, ch.phi) if on == "launch" else (grid.theta_mesh, grid.phi_mesh)
            theta0, phi0 = float(mesh[0][-1, -1]), float(mesh[1][-1, -1])
        spec = DipoleSpec(length, theta0, phi0)
        both = dipole.grid_field(spec, setup.directions, K)
        n = ch.rho.size
        for part, points in ((slice(n), ch), (slice(n, None), grid)):
            alone = dipole.grid_field(spec, points, K)
            assert np.array_equal(both.e_theta[part].reshape(alone.e_theta.shape), alone.e_theta)
            assert np.array_equal(both.e_phi[part].reshape(alone.e_phi.shape), alone.e_phi)
        if on is not None:
            sin_t, cos_t, sin_p, cos_p = (t[-1, -1] for t in (ch if on == "launch" else grid).trig)
            g = np.dot(dipole.axis(spec), [sin_t * cos_p, sin_t * sin_p, cos_t])
            assert abs(1.0 - g * g) < 1e-8
        assert setup.directions is setup.directions
        assert [t.shape for t in setup.directions.trig] == [(n + grid.theta_mesh.size,)] * 4
        for t in setup.directions.trig:
            with pytest.raises(ValueError, match="read-only"):
                t[0] = 0.0

    def test_one_field_pass_one_probe_call_and_one_order_sum(self, paper_setup, monkeypatch):
        # One _reconstruct_test: one grid_field pass gives the voltages'
        # field and the truth on the grid, and directivity takes the order
        # sums once, for the mesh, the Newton model and the trailing
        # synthesize call, which takes none of its own.
        calls, inside = [], []
        for module, name in ((dipole, "grid_field"), (chamber, "probe_voltages"),
                             (farfield, "_order_sums")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name + (" in synthesize" if inside else ""))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        synthesize = farfield.synthesize

        def marked(*args, **kwargs):
            calls.append("synthesize")
            inside.append(True)
            try:
                return synthesize(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(farfield, "synthesize", marked)
        cfg = paper_setup.config
        result, _, _, _, exact, _ = cli._reconstruct_test(
            paper_setup, DipoleSpec(cfg.test_length, 1.2, 0.4, cfg.test_current))
        assert calls == ["grid_field", "probe_voltages", "_order_sums", "synthesize"]
        assert exact.e_theta.shape == paper_setup.grid.theta_mesh.shape

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

    def test_basis_is_evaluated_for_the_grid_only(self, paper_config, monkeypatch):
        # Set-up evaluates the basis once, on the grid's nodes; a warm
        # reconstruction reads cached tables and evaluates none.
        points = []
        original = farfield.mode_components

        def spy(entries, theta, phi):
            points.append(np.size(theta))
            return original(entries, theta, phi)

        monkeypatch.setattr(farfield, "mode_components", spy)
        setup = cli.build_setup(paper_config)
        assert points == [setup.grid.theta_mesh.size] == [784]
        cfg = setup.config
        cli._reconstruct_test(setup, DipoleSpec(cfg.test_length, 0.3, 1.1, cfg.test_current))
        points.clear()
        cli._reconstruct_test(setup, DipoleSpec(cfg.test_length, 2.2, 4.0, cfg.test_current))
        assert points == []

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


def per_reference_columns(ch, refs, k):
    """V_R from one probe_voltages call per reference, without a workspace."""
    return np.column_stack([probe_voltages(ch, spec.field(k)) for spec in refs])


def assert_columns_close(v_r, expected, rtol=1e-13):
    """Every entry within rtol of the largest magnitude in its column."""
    assert v_r.shape == expected.shape
    assert np.all(np.abs(v_r - expected) <= rtol * np.abs(expected).max(axis=0))


NEGATIVE_CURRENT_CONFIG = {**SMALL_CONFIG,
                           "references": {**SMALL_CONFIG["references"], "current": -1.0}}

# A reference axis: on either pole, or anywhere.
AXES = st.tuples(st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
                 st.floats(0.0, 2.0 * math.pi))


def axes_of(refs):
    return np.array([dipole.axis(spec) for spec in refs])


class TestReferenceVoltages:
    """build_setup takes each candidate's V_R from the closed form
    dipole.reference_voltages, bound to the reference axes and to scratch
    buffers every candidate reuses; it equals the per-reference voltages to
    rounding."""

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, HIGHORDER_LSE_CONFIG, NEGATIVE_CURRENT_CONFIG],
                             ids=["small", "highorder-lse", "negative-current"])
    def test_batched_matrix_equals_per_reference_columns(self, monkeypatch, doc):
        build, refs, cfg = setup_voltage_builder(monkeypatch, doc)
        for seed in range(100):
            ch = sample_chamber(seed, cfg.n_probes, cfg.n_paths, cfg.sigma_rho)
            v_r = build(ch)
            assert v_r.flags.c_contiguous
            assert_columns_close(v_r, per_reference_columns(ch, refs, cfg.k))

    def test_launch_direction_on_a_reference_axis(self, monkeypatch):
        build, refs, cfg = setup_voltage_builder(monkeypatch, SMALL_CONFIG)
        base = sample_chamber(3, cfg.n_probes, cfg.n_paths, cfg.sigma_rho)
        theta, phi = base.theta.copy(), base.phi.copy()
        theta[2, 5], phi[2, 5] = refs[4].theta0, refs[4].phi0
        ch = ChamberModel(cfg.n_probes, cfg.n_paths, cfg.sigma_rho, 3, base.rho, theta, phi,
                          base.alpha)
        on_axis = refs[4].field(cfg.k)(theta[2, 5], phi[2, 5])
        assert abs(on_axis.e_theta) < 1e-9 and abs(on_axis.e_phi) < 1e-9
        v_r = build(ch)
        assert np.all(np.isfinite(v_r))
        assert_columns_close(v_r, per_reference_columns(ch, refs, cfg.k))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(axes=st.lists(AXES, min_size=1, max_size=4), length=st.floats(0.1, 1.5),
           current=st.sampled_from([1.0, -1.0]), n_probes=st.integers(1, 5),
           n_paths=st.integers(1, 5), seed=st.integers(0, 2**16))
    @example(axes=[(0.0, 0.0), (math.pi, 1.0)], length=1.5, current=-1.0, n_probes=1, n_paths=1,
             seed=0)
    def test_closed_form_equals_per_reference_columns(self, axes, length, current, n_probes,
                                                      n_paths, seed):
        refs = reference_dipole_set(axes, length, current)
        ch = sample_chamber(seed, n_probes, n_paths)
        v_r = dipole.reference_voltages(axes_of(refs), length, current, ch, K, {})
        expected = per_reference_columns(ch, refs, K)
        # One path can land in a pattern null of a dipole longer than a
        # wavelength, so the scale is the largest voltage each probe could
        # see from these dipoles, not the column's own largest.
        bracket = dipole.pattern_bracket(np.linspace(-1.0, 1.0, 4001), 2.0 * math.pi * length, {})
        scale = farfield.ETA0 * np.abs(bracket).max() * np.abs(ch.rho).sum(axis=1, keepdims=True)
        assert v_r.shape == expected.shape == (n_probes, len(refs))
        assert np.all(np.abs(v_r - expected) <= 1e-13 * scale)

    @pytest.mark.parametrize("doc", [None, HIGHORDER_LSE_CONFIG], ids=["paper", "highorder-lse"])
    def test_selection_matches_the_per_reference_route(self, paper_setup, doc):
        setup = paper_setup if doc is None else cli.build_setup(fileio.parse_config(doc))
        cfg = setup.config
        refs = reference_dipole_set(setup.orientations, cfg.ref_length, cfg.ref_current)
        generic = [
            float(np.linalg.cond(per_reference_columns(
                sample_chamber(seed, cfg.n_probes, cfg.n_paths, cfg.sigma_rho), refs, cfg.k)))
            for seed in cfg.seeds
        ]
        assert setup.chamber.seed == cfg.seeds[int(np.argmin(generic))]
        np.testing.assert_allclose(setup.selection.cond_v, generic, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("doc", [SMALL_CONFIG, HIGHORDER_LSE_CONFIG],
                             ids=["small", "highorder-lse"])
    def test_matrix_outlives_the_next_candidate(self, monkeypatch, doc):
        build, refs, cfg = setup_voltage_builder(monkeypatch, doc)
        first = build(sample_chamber(0, cfg.n_probes, cfg.n_paths, cfg.sigma_rho))
        kept = first.tobytes()
        second = build(sample_chamber(1, cfg.n_probes, cfg.n_paths, cfg.sigma_rho))
        assert first.tobytes() == kept and second.tobytes() != kept
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("doc", [PAPER_CONFIG, HIGHORDER_LSE_CONFIG],
                             ids=["paper", "highorder-lse"])
    def test_axes_taken_once_and_builder_given_the_chamber_alone(self, monkeypatch, doc):
        made, axis_calls, builder_calls = [], [], []
        reference_set, axis, select = (dipole.reference_dipole_set, dipole.axis,
                                       chamber.select_chamber)

        def spy_set(*args):
            made.extend(reference_set(*args))
            return made

        def spy_axis(spec):
            axis_calls.append(spec)
            return axis(spec)

        def spy_select(seeds, builder, *args):
            def recorded(*call, **keywords):
                builder_calls.append((call, keywords))
                return builder(*call, **keywords)

            return select(seeds, recorded, *args)

        monkeypatch.setattr(dipole, "reference_dipole_set", spy_set)
        monkeypatch.setattr(dipole, "axis", spy_axis)
        monkeypatch.setattr(chamber, "select_chamber", spy_select)
        cfg = fileio.parse_config(doc)
        cli.build_setup(cfg)
        # dipole_field takes the test dipole's axis through the same name;
        # the references' axes are taken once each, not once per candidate.
        assert len(made) == cfg.ref_count and len(cfg.seeds) == 100
        assert sum(any(spec is ref for ref in made) for spec in axis_calls) == cfg.ref_count
        assert len(builder_calls) == 100
        assert all(len(call) == 1 and isinstance(call[0], ChamberModel) and not keywords
                   for call, keywords in builder_calls)

    def test_one_builder_pass_per_candidate(self, monkeypatch):
        passes = []
        ranked = []
        select = chamber.select_chamber

        def spy(seeds, builder, *args):
            def counted(ch):
                passes.append(ch.seed)
                return builder(ch)

            ranked.append(select(seeds, counted, *args))
            return ranked[-1]

        monkeypatch.setattr(chamber, "select_chamber", spy)
        doc = {**SMALL_CONFIG, "chamber": {**SMALL_CONFIG["chamber"], "seeds": list(range(7))}}
        setup = cli.build_setup(fileio.parse_config(doc))
        # Every candidate is built once; the winner is not rebuilt.
        assert passes == list(range(7))
        # The calibration holds the matrix the winner was ranked by, bit for bit.
        selection, = ranked
        assert setup.chamber is selection.chamber
        v_cal = setup.calibration.voltage_matrix
        v_ranked = selection.voltage_matrix
        assert v_cal.shape == v_ranked.shape and v_cal.tobytes() == v_ranked.tobytes()


class TestChamberSelectionRanking:
    """select_chamber's ranking, every candidate's cond(V_R) in seed order,
    reaches the set-up and the reports under chamber_selection."""

    def test_ranking_is_the_cond_of_each_candidate(self):
        cfg = fileio.parse_config(SMALL_CONFIG)
        setup = cli.build_setup(cfg)
        refs = reference_dipole_set(setup.orientations, cfg.ref_length, cfg.ref_current)
        expected = [
            float(np.linalg.cond(dipole.reference_voltages(
                axes_of(refs), cfg.ref_length, cfg.ref_current,
                sample_chamber(seed, cfg.n_probes, cfg.n_paths, cfg.sigma_rho), cfg.k, {})))
            for seed in cfg.seeds
        ]
        selection = setup.selection
        assert selection.cond_v == expected
        assert selection.index == expected.index(min(expected))
        assert cfg.seeds[selection.index] == setup.chamber.seed
        assert expected[selection.index] == setup.cond_v_selected

    def test_reports_carry_the_same_deterministic_key(self, tmp_path):
        config = write_config(tmp_path)
        keys = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["reconstruct", "--config", str(config), "--out", str(out)]) == 0
            assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                             "--step", "90", "--degrees"]) == 0
            report = fileio.read_json(out / "report.json")["chamber_selection"]
            assert fileio.read_json(out / "sweep_meta.json")["chamber_selection"] == report
            keys.append(report)
        assert keys[0] == keys[1]
        assert keys[0]["seeds"] == SMALL_CONFIG["chamber"]["seeds"]
        assert len(keys[0]["cond_v"]) == len(keys[0]["seeds"])
        assert keys[0]["cond_v"][keys[0]["selected_index"]] == min(keys[0]["cond_v"])


class TestReferenceOptimization:
    """The set-up keeps the orientation optimizer's result, and the reports
    summarize it under reference_optimization."""

    OPTIMIZED = {"count": 10, "optimize": {"objective": "cond-A", "budget": 30}}

    def test_setup_keeps_the_optimizer_result(self):
        cfg = fileio.parse_config({**SMALL_CONFIG, "references": {
            **SMALL_CONFIG["references"], **self.OPTIMIZED}})
        setup = cli.build_setup(cfg)
        result = setup.optimization
        assert isinstance(result, planner.OptimizationResult)
        assert result.orientations == setup.orientations
        assert result.evaluations == 30 and result.trace[-1][1] == result.objective_value
        assert cli.build_setup(fileio.parse_config(SMALL_CONFIG)).optimization is None

    def test_reports_carry_the_same_deterministic_key(self, tmp_path):
        config = write_config(tmp_path, references=self.OPTIMIZED)
        keys = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["reconstruct", "--config", str(config), "--out", str(out)]) == 0
            assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                             "--step", "90", "--degrees"]) == 0
            report = fileio.read_json(out / "report.json")["reference_optimization"]
            assert fileio.read_json(out / "sweep_meta.json")["reference_optimization"] == report
            keys.append(report)
        assert keys[0] == keys[1]
        assert set(keys[0]) == {"objective", "evaluations", "budget", "start", "end"}
        assert keys[0]["objective"] == "cond-A" and keys[0]["budget"] == 30
        assert keys[0]["evaluations"] == 30 and keys[0]["end"] <= keys[0]["start"]
        # The end is the objective of the orientations the set-up uses.
        report = fileio.read_json(tmp_path / "a" / "report.json")
        assert keys[0]["end"] == report["condition_numbers"]["a_matrix"]

    def test_no_optimizer_writes_null(self, tmp_path):
        config = write_config(tmp_path)
        assert cli.main(["reconstruct", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path),
                         "--step", "90", "--degrees"]) == 0
        for name in ("report.json", "sweep_meta.json"):
            doc = fileio.read_json(tmp_path / name)
            assert "reference_optimization" in doc and doc["reference_optimization"] is None


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

    def test_paper_setup_scores_only_the_trace(self, paper_config, monkeypatch):
        # The optimizer builds A_R at each search point of cond(A_R) > 100
        # and once for every best-so-far point together, the set-up once
        # more; each run decomposes the upright dipole once.
        calls, points = {"matrix": 0, "decompose": 0}, []
        search, builder = planner.nelder_mead, planner.dipole_coefficient_matrix

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def spied_search(fun, x0, budget):
            def spied(x):
                points.append(x.copy())
                return fun(x)
            return search(spied, x0, budget)

        monkeypatch.setattr(planner, "dipole_coefficient_matrix", counted("matrix", builder))
        monkeypatch.setattr(farfield, "decompose", counted("decompose", farfield.decompose))
        monkeypatch.setattr(planner, "nelder_mead", spied_search)
        setup = cli.build_setup(paper_config)
        counted_calls = dict(calls)
        ill = sum(np.linalg.cond(builder(
            [planner.wrap_orientation(x[2 * i], x[2 * i + 1]) for i in range(len(x) // 2)],
            paper_config.mode_set(), paper_config.ref_length)) > 100 for x in points)
        assert len(points) == 1501 and ill == 1  # one point of the start's simplex
        assert len(setup.optimization.trace) == 173
        assert counted_calls == {"matrix": 1 + 1 + ill, "decompose": 2}
        assert counted_calls["matrix"] == 3

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

    def test_optimizer_scores_the_config_grid(self, tmp_path):
        # On this coarse grid the upright decomposition differs from the
        # default grid's, and cond(A_R) with it by about 1e-6 relative.
        config = write_config(tmp_path, overrides={
            "grid": {"n_theta": 6, "n_phi": 8},
            "references": {**SMALL_CONFIG["references"],
                           "optimize": {"objective": "cond-A", "budget": 40}},
        })
        argv = ["--config", str(config), "--out", str(tmp_path)]
        assert cli.main(["optimize", *argv]) == 0
        assert cli.main(["reconstruct", *argv]) == 0
        objective = fileio.read_json(tmp_path / "orientations.json")["objective_value"]
        cond_a = fileio.read_json(tmp_path / "report.json")["condition_numbers"]["a_matrix"]
        assert objective == pytest.approx(cond_a, rel=1e-12, abs=0.0)


def source_env() -> dict:
    """os.environ with this checkout's multipat first on PYTHONPATH."""
    src = str(Path(multipat.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


class TestConsoleScript:
    def test_runtime_does_not_import_scipy(self):
        # scipy is a test dependency only; loading it costs ~19 MB resident.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import multipat.cli, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_warning_prints_one_line(self, tmp_path):
        # References this short put cond(A_R) past the warning threshold but
        # not the error one: the run warns and succeeds.
        cfg_path = write_config(tmp_path, references={"length": fileio.DIPOLE_LENGTH_MIN})
        proc = subprocess.run(
            [sys.executable, "-m", "multipat.cli", "reconstruct", "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: cond(A_R) ="), proc.stderr

    def test_main_restores_the_warning_format(self, tmp_path):
        default_format = warnings.formatwarning
        assert cli.main(["plan", "--kr", "3.0"]) == 0
        assert cli.main(["reconstruct", "--config", str(tmp_path / "missing.json")]) == 2
        assert warnings.formatwarning is default_format

    def test_entry_point_runs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "multipat.cli", "plan", "--kr", "3.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "truncation order: 3" in proc.stdout
