"""Sweep engine, threshold location, table formats, CLI contract."""

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ptbilayer
from ptbilayer import effective, grid, media, noise, scattering, sweep_cli
from ptbilayer.sweep_cli import (
    ConfigError,
    NoSignChange,
    ResultTable,
    SweepSpec,
    ThresholdQuery,
    cli_main,
    compare_theories,
    grid_values,
    locate_threshold,
    run_sweep,
    spec_from_config,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import gate  # noqa: E402
import workloads  # noqa: E402


SMALL = ["--range", "1:2:2", "--omega-trad", "1000"]   # a two-row grid


def spec(**kw):
    base = dict(preset="set1", variable="alpha_l", start=1.0, stop=1000.0,
                count=40, spacing="log", fixed_omega_trad=1000.0,
                observables=("scattering",), reproducible=True)
    base.update(kw)
    return SweepSpec(**base)


class TestGrid:
    def test_log_spacing(self):
        xs = grid_values(spec(count=4))
        np.testing.assert_allclose(xs, [1.0, 10.0, 100.0, 1000.0], rtol=1e-12)

    def test_linear_spacing(self):
        xs = grid_values(spec(spacing="linear", count=5, start=0.0, stop=8.0))
        np.testing.assert_allclose(xs, [0, 2, 4, 6, 8], atol=1e-12)

    def test_auto_spacing_rules(self):
        # two decades of loss amplitude default to log, narrow spans to linear
        assert grid_values(spec(spacing=None, count=3))[1] == pytest.approx(
            math.sqrt(1000.0))
        xs = grid_values(spec(spacing=None, start=10.0, stop=20.0, count=3))
        assert xs[1] == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            spec(count=1)
        with pytest.raises(ConfigError):
            spec(start=5.0, stop=5.0)
        with pytest.raises(ConfigError):
            spec(spacing="log", start=-1.0)
        with pytest.raises(ConfigError):
            spec(observables=("spin",))
        with pytest.raises(ConfigError):
            spec(variable="phase")
        with pytest.raises(ConfigError):
            spec(mode="paper", check_sum_rule=True)
        with pytest.raises(ConfigError, match="underflows"):
            spec(thickness_nm=5e-324)    # positive, but 0 in metres
        # library values the CLI never builds: not a (gain, loss) pair of
        # media, or not an input state
        gain = media.preset("set1", 2.0).gain
        with pytest.raises(ConfigError, match="materials"):
            spec(preset=None, materials=(1, 2))
        with pytest.raises(ConfigError, match="materials"):
            spec(preset=None, materials=(gain,))
        with pytest.raises(ConfigError, match="input_state"):
            spec(input_state=None)

    def test_materials_given_as_a_list_are_stored_as_a_tuple(self):
        # so a spec built from either hashes, as a frozen dataclass should
        bil = media.preset("set1", 2.0)
        pair = (bil.gain, bil.loss)
        from_list, from_tuple = (spec(preset=None, materials=m) for m in (list(pair), pair))
        assert from_list.materials == pair
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)

    @pytest.mark.parametrize("alias", sorted(scattering._MODE_ALIASES))
    def test_every_mode_alias_is_stored_as_its_canonical_name(self, alias):
        # the kernel and the metadata read spec.mode as it is stored
        canonical = scattering.canonical_mode(alias)
        assert canonical in (scattering.MODE_FULL, scattering.MODE_PAPER)
        given, named = spec(mode=alias, count=3), spec(mode=canonical, count=3)
        assert given.mode == canonical
        assert given == named
        table = run_sweep(given)
        assert table.metadata["mode"] == canonical
        assert table.to_json_text() == run_sweep(named).to_json_text()


class TestConfig:
    def test_empty_config_is_the_default_spec(self):
        assert spec_from_config({}) == SweepSpec()

    def test_every_key_sets_its_field(self):
        gain = {"eps_b": 2.0, "alpha": -3.0, "omega0_trad": 1000.0, "gamma_trad": 67.0}
        loss = {"eps_b": 2.5, "alpha": 7.0, "omega0_trad": 1100.0, "gamma_trad": 80.0}
        spec = spec_from_config({
            "materials": {"gain": gain, "loss": loss}, "thickness_nm": 20,
            "theory": "both", "mode": "paper", "observables": "noise",
            "check_sum_rule": False,
            "sweep": {"variable": "omega", "start": 500, "stop": 1500, "count": 9.0,
                      "spacing": "log"},
            "fixed": {"omega_trad": 900, "alpha_l": 3, "temperature_k": 300},
            "input_state": {"xi": 0.3, "phi_xi": 1, "w": 4, "phi_rho": 0.5,
                            "phi_lo": 0.25}})
        assert spec == SweepSpec(
            preset=None, materials=(
                media.LorentzMedium(2.0, -3.0, 1000.0 * media.TRAD, 67.0 * media.TRAD),
                media.LorentzMedium(2.5, 7.0, 1100.0 * media.TRAD, 80.0 * media.TRAD)),
            variable="omega", start=500.0, stop=1500.0, count=9, spacing="log",
            fixed_omega_trad=900.0, fixed_alpha_l=3.0, temperature_k=300.0,
            thickness_nm=20.0, theory="both", mode="paper", observables=("noise",),
            input_state=sweep_cli.SqueezedCoherentInput(0.3, 1.0, 4.0, 0.5), phi_lo=0.25)
        assert type(spec.start) is float and type(spec.count) is int

    def test_a_material_config_holds_its_loss_alpha_fixed(self, tmp_path, capsys):
        # the loss material's alpha is the fixed alpha_l, as --alpha-l would set it
        medium = {"eps_b": 2.0, "omega0_trad": 1000.0, "gamma_trad": 67.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "materials": {"gain": {**medium, "alpha": -5.0}, "loss": {**medium, "alpha": 5.0}},
            "sweep": {"variable": "omega", "start": 900, "stop": 1100, "count": 5},
            "observables": ["scattering", "noise"]}))
        tables = []
        for flags in ([], ["--alpha-l", "5"], ["--alpha-l", "2"]):
            assert cli_main(["sweep", "--config", str(path), "--format", "json",
                             "--reproducible", *flags]) == 0
            tables.append(json.loads(capsys.readouterr().out))
        assert tables[0]["metadata"]["fixed"]["alpha_l"] == 5.0
        assert tables[0] == tables[1]
        assert tables[0]["rows"] != tables[2]["rows"]

    @pytest.mark.parametrize("fixed, flags, alpha_l", [
        ({"alpha_l": 9}, [], 9.0), ({}, ["--alpha-l", "9"], 9.0),
        ({"alpha_l": 9}, ["--alpha-l", "8"], 8.0), ({}, ["--preset", "set1"], 2.0)])
    def test_a_set_alpha_l_wins_over_the_loss_material(self, fixed, flags, alpha_l,
                                                      tmp_path, capsys):
        # fixed.alpha_l and --alpha-l override the loss material's alpha, and a
        # --preset drops the materials: the rows are those of a config that
        # states alpha_l as its loss alpha, or of the preset alone
        def table(cfg, flags=()):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert cli_main(["sweep", "--config", str(path), "--format", "json",
                             "--reproducible", *flags]) == 0
            return json.loads(capsys.readouterr().out)

        def materials(alpha):
            medium = {"eps_b": 2.0, "omega0_trad": 1000.0, "gamma_trad": 67.0}
            return {"gain": {**medium, "alpha": -5.0}, "loss": {**medium, "alpha": alpha}}

        sweep = {"variable": "omega", "start": 900, "stop": 1100, "count": 2}
        got = table({"materials": materials(5.0), "sweep": sweep, "fixed": fixed}, flags)
        alone = table({"sweep": sweep} if "--preset" in flags else
                      {"materials": materials(alpha_l), "sweep": sweep})
        assert got["metadata"]["fixed"]["alpha_l"] == alpha_l
        assert got["rows"] == alone["rows"]

# cells as the grid kernel writes them (floats with IEEE extremes, status and
# phase-class names) and as a library caller might (None, ints and bools, which
# equal floats but print differently), in columns of distinct cells and in
# columns that repeat a few values, as the JSON writer formats each repeated
# value once
NAMES = ["ok", *(e.__name__ for e in grid.ROW_ERRORS),
         "exact", "broken", "exceptional", "inconsistent"]
EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
cell_values = st.one_of(st.floats(), st.sampled_from(EXTREMES), st.sampled_from(NAMES),
                        st.sampled_from([None, 0, 1, True, False]))


def _columns(n: int):
    distinct = st.lists(cell_values, min_size=n, max_size=n)
    repeating = st.lists(cell_values, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return st.lists(st.one_of(distinct, repeating), max_size=5)


tables = st.builds(
    lambda names, columns, metadata: ResultTable(dict(zip(names, columns)), metadata),
    st.lists(st.text(max_size=4), min_size=5, max_size=5, unique=True),
    st.integers(0, 12).flatmap(_columns),
    st.dictionaries(st.text(max_size=4), st.one_of(st.none(), st.floats(), st.text(max_size=4)),
                    max_size=3))


class TestRunSweep:
    def test_row_per_grid_point_in_order(self):
        table = run_sweep(spec(count=17))
        assert len(table.rows) == 17
        col = table.column("alpha_l")
        assert col == sorted(col)
        assert col[0] == pytest.approx(1.0)
        assert col[-1] == pytest.approx(1000.0)

    def test_status_column_is_last_and_ok(self):
        table = run_sweep(spec(count=5))
        assert table.columns[-1] == "status"
        assert all(row[-1] == "ok" for row in table.rows)

    def test_eigenvalue_columns(self):
        table = run_sweep(spec(observables=("eigenvalues",), count=9))
        assert table.column("phase_class")[0] == "exact"
        assert table.column("phase_class")[-1] == "broken"
        dev = table.column("unimodularity_dev")
        assert max(dev[:4]) < 1e-8

    def test_error_rows_are_recorded_not_fatal(self):
        table = run_sweep(spec(observables=("eta",), start=400.0,
                               stop=1000.0, count=4, spacing="linear",
                               thickness_nm=2000.0))
        statuses = table.column("status")
        assert "BranchAmbiguity" in statuses
        idx = statuses.index("BranchAmbiguity")
        assert math.isnan(table.rows[idx][table.columns.index("eta_mod")])

    @pytest.mark.parametrize("theory", ["exact", "effective", "both"])
    @pytest.mark.parametrize("mode", ["full_complex", "paper"])
    @pytest.mark.parametrize("thickness_nm", [5000.0, 20000.0])
    def test_non_finite_stack_gives_row_statuses(self, theory, mode, thickness_nm):
        # micron layers: the chain or its square overflows to inf/nan, the
        # commutator's e^{2u} overflows in paper mode, and the Bloch index is
        # nan or overflows in cmath; every row fails as data
        table = run_sweep(spec(start=400.0, stop=1000.0, count=4, spacing="linear",
                               thickness_nm=thickness_nm, theory=theory, mode=mode,
                               observables=("scattering", "eigenvalues", "noise",
                                            "variance", "mandel", "eta")))
        statuses = table.column("status")
        assert "ok" not in statuses
        if thickness_nm > 5000.0:
            return
        if theory != "effective" and mode == "full_complex":
            assert statuses == ["SingularTransfer"] * 4
        elif theory != "effective":
            assert statuses[-1] == "OverflowError"
        else:
            assert statuses == ["BranchAmbiguity"] * 4

    def test_deterministic_tables(self):
        a = run_sweep(spec(count=12,
                           observables=("scattering", "noise", "variance")))
        b = run_sweep(spec(count=12,
                           observables=("scattering", "noise", "variance")))
        assert a.to_csv_text() == b.to_csv_text()
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())

    def test_temperature_sweep(self):
        table = run_sweep(spec(variable="temperature", start=0.0, stop=300.0,
                               count=3, spacing="linear", fixed_alpha_l=50.0,
                               observables=("noise",)))
        s = table.column("s_right")
        assert abs(s[2] - s[0]) < 1e-9  # optical frequency: thermal part dead

    def test_omega_sweep_columns(self):
        table = run_sweep(spec(variable="omega", start=500.0, stop=1500.0,
                               count=7, spacing="linear", fixed_alpha_l=24.0,
                               observables=("variance",)))
        assert table.columns[0] == "omega_trad"
        assert all(np.isfinite(table.column("variance")))


class TestFormats:
    def test_csv_shape(self):
        text = run_sweep(spec(count=6)).to_csv_text()
        lines = text.split("\n")
        assert lines[-1] == ""  # trailing newline
        assert "\r" not in text
        rows = [ln.split(",") for ln in lines[:-1]]
        assert len(rows) == 7
        assert all(len(r) == len(rows[0]) for r in rows)
        assert rows[0][-1] == "status"

    def test_csv_floats_round_trip(self):
        table = run_sweep(spec(count=6, observables=("scattering", "noise")))
        lines = table.to_csv_text().split("\n")[1:-1]
        i_t = table.columns.index("T")
        for line, row in zip(lines, table.rows):
            assert float(line.split(",")[i_t]) == row[i_t]  # 17 sig digits

    def test_json_nan_becomes_null(self):
        table = run_sweep(spec(observables=("eta",), start=400.0, stop=1000.0,
                               count=3, spacing="linear",
                               thickness_nm=2000.0))
        obj = json.loads(json.dumps(table.to_json_obj()))
        flat = [c for row in obj["rows"] for c in row]
        assert None in flat

    @staticmethod
    def oracle(table):
        return json.dumps(table.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @given(tables)
    # a zero-row table, a table without columns, and a column that repeats both zeros
    @example(ResultTable({"alpha_l": [], "status": []}, {"grid": {"count": 0}}))
    @example(ResultTable({}, {}))
    @example(ResultTable({"n_eff_im": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 1.5, 1.5],
                          "status": ["ok"] * 8}, {"preset": "set1"}))
    def test_json_text_is_json_dumps_of_the_json_obj(self, table):
        assert table.to_json_text() == self.oracle(table)

    @pytest.mark.parametrize("sweep", workloads.SWEEP_EXACT + workloads.COMPARE_EFFECTIVE,
                             ids=lambda sweep: sweep.name)
    def test_every_benchmark_sweep_writes_json_dumps_of_its_table(self, sweep, monkeypatch,
                                                                   capsys):
        written = []
        monkeypatch.setattr(sweep_cli, "run_sweep",
                            lambda spec: written.append(run_sweep(spec)) or written[-1])
        assert cli_main(dataclasses.replace(sweep, fmt="json").argv()) == 0
        assert capsys.readouterr().out == self.oracle(*written)

    def test_metadata_reproducible(self):
        meta = run_sweep(spec(count=3)).metadata
        assert "timestamp" not in meta
        assert meta["mode"] == "full_complex"
        assert meta["grid"]["count"] == 3
        meta2 = run_sweep(spec(count=3, reproducible=False)).metadata
        assert "timestamp" in meta2

    def test_metadata_names_the_families_in_table_order(self, capsys):
        rc = cli_main(["sweep", "--preset", "set1", "--range", "1:10:3", "--linear",
                       "--obs", "mandel,scattering,mandel", "--format", "json",
                       "--reproducible"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["metadata"]["observables"] == ["scattering", "mandel"]
        assert obj["columns"].index("T") < obj["columns"].index("mandel_q")


class TestCompare:
    def test_effective_columns_present(self):
        table = compare_theories(spec(count=6, stop=100.0,
                                      observables=("variance", "mandel")))
        v = np.array(table.column("variance"))
        ve = np.array(table.column("variance_effective"))
        rd = np.array(table.column("variance_rel_dev"))
        np.testing.assert_allclose(rd, np.abs(ve - v) / np.abs(v), rtol=1e-12)
        assert max(rd) < 0.10  # moderate coupling: theories track each other
        assert "mandel_q_rel_dev" in table.columns


class TestLocate:
    def test_transparency_crossings(self):
        # T crosses unity twice below the coalescence point
        lo = locate_threshold(ThresholdQuery("atr", (10.0, 40.0)), spec())
        hi = locate_threshold(ThresholdQuery("atr", (100.0, 130.0)), spec())
        assert lo == pytest.approx(23.7, abs=1.0)
        assert hi == pytest.approx(113.6, abs=2.0)

    def test_reflection_degeneracy(self):
        x = locate_threshold(ThresholdQuery("accidental_degeneracy",
                                            (30.0, 80.0)), spec())
        assert x == pytest.approx(51.9, abs=1.5)

    def test_eigenvalue_coalescence(self):
        x = locate_threshold(ThresholdQuery("exceptional_point",
                                            (800.0, 1000.0)), spec())
        assert x == pytest.approx(889.7, abs=1.5)

    @staticmethod
    def bare_extractions(monkeypatch):
        """The bare matrices that scattering_from_transfer is called on from here
        on: a call on a chain reads the chain's s, which one bare call extracts
        on first read."""
        calls, extract = [], scattering.scattering_from_transfer

        def counting(transfer):
            if not isinstance(transfer, scattering.TransferChain):
                calls.append(transfer)
            return extract(transfer)

        monkeypatch.setattr(scattering, "scattering_from_transfer", counting)
        return calls

    def test_exceptional_point_extracts_s_once_per_evaluation(self, monkeypatch):
        # the scalar and scattering.eigenvalues read the one S the chain carries
        calls = self.bare_extractions(monkeypatch)
        f = sweep_cli._threshold_scalar(spec(), "exceptional_point")
        assert f(800.0) < 0 < f(1000.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("kind", ["atr", "accidental_degeneracy", "exceptional_point",
                                      "squeeze_crossing", "mandel_crossing"])
    def test_each_exact_evaluation_extracts_s_once(self, kind, check, monkeypatch):
        # the observable, the eigenvalues and the --check sum rule read one S
        calls = self.bare_extractions(monkeypatch)
        f = sweep_cli._threshold_scalar(spec(check_sum_rule=check), kind)
        for x in (10.0, 100.0):
            assert math.isfinite(f(x))
        assert len(calls) == 2

    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("kind, x, flux", [
        ("atr", 24.0, False), ("accidental_degeneracy", 50.0, False),
        ("exceptional_point", 890.0, False), ("mandel_crossing", 5.0, True),
        ("squeeze_crossing", 24.0, True)])
    def test_checked_evaluation_computes_only_the_flux_it_reads(self, kind, x, flux, check,
                                                                monkeypatch):
        # a checked evaluation builds the layer terms and checks them once; only
        # a noisy kind goes on to the flux, and so to the thermal occupation
        calls = collections.Counter()

        def count(name):
            fn = getattr(noise, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(noise, name, counted)

        names = ("thermal_occupation", "layer_commutator", "sum_rule_residuals")
        for name in names:
            count(name)
        assert math.isfinite(sweep_cli._threshold_scalar(spec(check_sum_rule=check), kind)(x))
        assert [calls[name] for name in names] == [flux, 2 * (flux or check), check]

    @pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
    @pytest.mark.parametrize("theory", sweep_cli.THEORIES)
    @pytest.mark.parametrize("kind", sweep_cli.THRESHOLD_KINDS)
    def test_an_evaluation_runs_the_stages_of_its_family_table(self, kind, theory, check):
        # one evaluation builds the chain, the Bloch index, the layer terms and
        # the flux exactly where a one-row table of the kind's family builds
        # them for its main theory, the exact one under "both"
        def stages(patches, run):
            calls = collections.Counter()
            with pytest.MonkeyPatch.context() as m:
                for owner, name, stage in patches:
                    fn = getattr(owner, name)
                    m.setattr(owner, name, lambda *a, fn=fn, stage=stage, **k:
                              calls.update([stage]) or fn(*a, **k))
                return calls, run()

        s = spec(theory=theory, check_sum_rule=check)
        main = dataclasses.replace(s, theory="exact" if theory == "both" else theory,
                                   observables=(sweep_cli.THRESHOLD_FAMILIES[kind],))
        table, (_, status) = stages(
            [(grid, "ExactStack", "chain"), (effective, "bloch", "slab"),
             (grid.ExactStack, "layer_terms", "terms"), (noise, "fluxes", "flux"),
             (effective, "slab_flux", "flux")],
            lambda: grid.evaluate_grid(main, np.array([24.0])))
        scalar, value = stages(
            [(scattering, "transfer_chain", "chain"), (effective, "bloch_index", "slab"),
             (noise, "layer_terms", "terms"), (noise, "noise_flux", "flux"),
             (effective, "effective_noise", "flux")],
            lambda: sweep_cli._threshold_scalar(s, kind)(24.0))
        assert list(status) == ["ok"] and math.isfinite(value)
        assert scalar == table

    @pytest.mark.parametrize("theory", ["exact", "effective"])
    @pytest.mark.parametrize("fields, x, message", [
        pytest.param({}, -1.0, "alpha_l must be nonnegative", id="set1-negative"),
        *(pytest.param(fields, x, "alpha must be finite", id=f"{name}-{x}")
          for name, fields in (
              ("set1", {}), ("set2", {"preset": "set2"}),
              ("materials", {"preset": None, "materials": (
                  media.LorentzMedium(2.0, -5.0, 1000.0 * media.TRAD, 67.0 * media.TRAD),
                  media.LorentzMedium(2.5, 5.0, 1100.0 * media.TRAD, 80.0 * media.TRAD))}))
          for x in (math.inf, math.nan)),
        *(pytest.param({"variable": "omega", "start": 650.0, "stop": 810.0,
                        "fixed_alpha_l": 24.0}, x, "omega must be positive", id=f"omega-{x}")
          for x in (0.0, -1.0))])
    def test_an_evaluation_refuses_what_its_stack_refuses(self, fields, x, message, theory):
        # values outside any bracket the CLI accepts, from a library caller: an
        # evaluation raises the ValueError that building its stack at x raises
        f = sweep_cli._threshold_scalar(spec(theory=theory, **fields), "atr")
        with pytest.raises(ValueError, match=f"^{message}$"):
            f(x)

    def test_a_query_builds_and_checks_its_stack_once(self, monkeypatch, capsys):
        # each of the seven README queries checks one stack, two media and a
        # bilayer, however many evaluations it takes
        calls = collections.Counter()
        for cls in (media.LorentzMedium, media.Bilayer):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, check=check,
                                name=cls.__name__: calls.update([name]) or check(self))
        for query in workloads.LOCATE_THRESHOLDS:
            assert cli_main(query.argv(*query.bracket)) == 0
        capsys.readouterr()
        assert calls == {"LorentzMedium": 14, "Bilayer": 7}

    def test_round_trip_unity(self):
        x = locate_threshold(ThresholdQuery("eta_unity", (100.0, 200.0)),
                             spec(observables=("eta",)))
        assert x == pytest.approx(146.9, abs=0.5)

    def test_mandel_crossing(self):
        x = locate_threshold(ThresholdQuery("mandel_crossing", (1.0, 10.0)),
                             spec())
        assert x == pytest.approx(4.89, abs=0.05)

    def test_squeeze_crossing_in_frequency(self):
        # variance returns to shot noise below the operating frequency
        x = locate_threshold(
            ThresholdQuery("squeeze_crossing", (500.0, 900.0)),
            spec(variable="omega", fixed_alpha_l=24.0))
        assert x == pytest.approx(722.2, abs=5.0)

    def test_result_brackets_sign_change(self):
        q = ThresholdQuery("atr", (10.0, 40.0), tol=1e-12)
        x = locate_threshold(q, spec())
        f = sweep_cli._threshold_scalar(spec(), "atr")
        assert f(x - 1e-6) * f(x + 1e-6) < 0

    @pytest.mark.parametrize("theory, check", [("exact", False), ("exact", True),
                                               ("effective", False)],
                             ids=["False", "True", "effective"])
    def test_noisy_scalar_derives_the_layer_indices_once(self, theory, check, monkeypatch):
        # the noise flux and its sum rule check read the indices off the chain;
        # the effective slab derives its indices from the permittivities it pumps
        # with. media.permittivity, under any name, evaluates through
        # media.lorentz_permittivity, so that is where the calls are counted.
        calls = []
        lorentz = media.lorentz_permittivity
        monkeypatch.setattr(media, "lorentz_permittivity",
                            lambda *a, **k: calls.append(a) or lorentz(*a, **k))
        f = sweep_cli._threshold_scalar(spec(theory=theory, check_sum_rule=check),
                                        "squeeze_crossing")
        assert math.isfinite(f(24.0))
        assert len(calls) == 2

    @staticmethod
    def recorded_locate(monkeypatch, capsys, argv, scalar=None):
        """cli_main(argv) with the locate scalar (or scalar, given one) recorded:
        (exit code, JSON output or stderr, the scalar, each point evaluated)."""
        make, scalars, points = sweep_cli._threshold_scalar, [], []

        def recording(spec, kind):
            scalars.append(scalar or make(spec, kind))
            return lambda x: points.append(x) or scalars[0](x)

        monkeypatch.setattr(sweep_cli, "_threshold_scalar", recording)
        rc = cli_main(argv)
        out, err = capsys.readouterr()
        return rc, json.loads(out) if rc == 0 else err, scalars[0], points

    @staticmethod
    def n_max(lo, hi, tol=ThresholdQuery.tol):
        # ITP's step bound: bisection's to a width of tol * max(|lo|, |hi|), plus n0 = 1
        return math.ceil(math.log2((hi - lo) / (tol * max(abs(lo), abs(hi))))) + 1

    @pytest.mark.parametrize("query", workloads.LOCATE_THRESHOLDS, ids=lambda q: q.name)
    def test_roots_agree_with_brentq(self, query, monkeypatch, capsys):
        from scipy.optimize import brentq

        rc, out, f, points = self.recorded_locate(monkeypatch, capsys,
                                                  query.argv(*query.bracket))
        assert rc == 0
        assert out["evaluations"] == len(points) <= self.n_max(*query.bracket) + 4
        root = brentq(f, *query.bracket, xtol=1e-300, rtol=1e-15)
        rtol = gate.ROOT_RTOL.get(query.kind, gate.ROOT_RTOL_DEFAULT)
        assert abs(out["abscissa"] - root) <= rtol * abs(root)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("query", workloads.LOCATE_THRESHOLDS, ids=lambda q: q.name)
    def test_final_bracket_obeys_tol(self, query, tol, monkeypatch, capsys):
        # every point inside the final bracket would have narrowed it, so its
        # ends are the evaluated points nearest the abscissa; the last two
        # points are the sign check's
        lo0, hi0 = query.bracket
        rc, out, _, points = self.recorded_locate(
            monkeypatch, capsys, query.argv(lo0, hi0) + [f"--tol={tol}"])
        assert rc == 0
        x = out["abscissa"]
        lo = max(p for p in points[:-2] if p <= x)
        hi = min(p for p in points[:-2] if p >= x)
        assert x == 0.5 * (lo + hi)
        if out["evaluations"] < self.n_max(lo0, hi0, tol) + 4:
            assert hi - lo <= tol * max(abs(lo), abs(hi))
        else:   # ended on the step bound, which leaves the bracket this narrow
            assert hi - lo <= tol * max(abs(lo0), abs(hi0)) + math.ulp(hi)   # to rounding

    @pytest.mark.parametrize("scalar", [
        lambda x: -1.0 if x <= 23.7 else 1000.0,
        lambda x: 1e-3 if x > 23.7 else -5.0,
        lambda x: math.copysign(abs(x - 23.7) ** 0.5, x - 23.7),
        lambda x: math.copysign(abs(x - 23.7) ** 0.1, x - 23.7)],
        ids=["step", "low-step", "sqrt-cusp", "tenth-root-cusp"])
    def test_evaluations_stay_within_the_step_bound(self, scalar, monkeypatch, capsys):
        # regula falsi does not help on a step or a cusp; the projection keeps
        # ITP within bisection's step count plus one
        rc, out, _, points = self.recorded_locate(
            monkeypatch, capsys, ["locate", "--kind", "atr", "--bracket", "5:50"], scalar)
        assert rc == 0
        assert out["evaluations"] == len(points) <= self.n_max(5.0, 50.0) + 4
        assert abs(out["abscissa"] - 23.7) <= 1e-10 * 50.0

    def test_bracket_closing_on_zero_returns(self):
        # the bracket closes on 0, where no width is below tol * max(|lo|, |hi|);
        # the step bound ends the loop (bisection alone never did). Run it in a
        # subprocess so that a regression fails on the timeout, not hangs
        code = ("import sys; from ptbilayer import sweep_cli; "
                "sweep_cli._threshold_scalar = lambda spec, kind: "
                "lambda x: -1.0 if x <= 0 else 1.0; "
                "sys.exit(sweep_cli.cli_main(['locate', '--kind', 'atr', '--bracket', '0:1']))")
        src = str(Path(ptbilayer.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert 0.0 < out["abscissa"] <= 1e-10
        assert out["evaluations"] == self.n_max(0.0, 1.0) + 4

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            locate_threshold(ThresholdQuery("atr", (1.0, 10.0)), spec())

    @pytest.mark.parametrize("query, fields, flags", [
        (ThresholdQuery("atr", (-5.0, 50.0)), {"fixed_omega_trad": 1000.0},
         ["--omega-trad", "1000"]),
        (ThresholdQuery("squeeze_crossing", (-650.0, 810.0)),
         {"variable": "omega", "fixed_alpha_l": 24.0}, ["--var", "omega", "--alpha-l", "24"]),
    ], ids=["alpha_l", "omega"])
    def test_the_library_checks_the_bracket_as_the_cli_does(self, query, fields, flags,
                                                            capsys):
        # the bracket is the range the scalar is evaluated on, in both
        with pytest.raises(ConfigError) as exc:
            locate_threshold(query, SweepSpec(**fields))
        lo, hi = query.bracket
        assert cli_main(["locate", "--kind", query.kind, f"--bracket={lo}:{hi}", *flags]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"

    def test_bad_bracket(self):
        with pytest.raises(ConfigError):
            locate_threshold(ThresholdQuery("atr", (40.0, 10.0)), spec())
        with pytest.raises(ConfigError):
            locate_threshold(ThresholdQuery("windmill", (1.0, 2.0)), spec())

    @pytest.mark.parametrize("bracket, tol", [
        ((1.0, "2"), 1e-10), ((1.0, 2.0, 3.0), 1e-10), (None, 1e-10), ((1.0, 2.0), "x")])
    def test_a_bracket_or_tol_that_is_not_numbers_is_a_config_error(self, bracket, tol):
        # values the CLI never builds: a string end, three ends, no bracket, a string tol
        with pytest.raises(ConfigError):
            ThresholdQuery("atr", bracket, tol)

    def test_a_query_stores_its_numbers_as_floats(self):
        query = ThresholdQuery("atr", [5, 50], tol=np.float64(1e-9))
        assert query == ThresholdQuery("atr", (5.0, 50.0), 1e-9)
        assert list(map(type, (*query.bracket, query.tol))) == [float] * 3


class TestCli:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        rc = cli_main(["sweep", "--preset", "set1", "--var", "alpha_l",
                       "--range", "1:1000:12", "--log",
                       "--omega-trad", "1000", "--obs", "eigenvalues",
                       "--out", str(out), "--reproducible"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("alpha_l,lambda1_mod")

    def test_sweep_stdout_json(self, capsys):
        rc = cli_main(["sweep", "--preset", "set2", "--var", "alpha_l",
                       "--range", "1:10:3", "--linear", "--obs", "variance",
                       "--format", "json", "--reproducible"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["metadata"]["preset"] == "set2"
        assert len(obj["rows"]) == 3

    def test_pt_solve_values(self, capsys):
        rc = cli_main(["pt-solve", "--preset", "set2", "--alpha-l", "2"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["omega_pt_over_omega0_gain"] == pytest.approx(1.5768,
                                                                 abs=1e-3)
        assert obj["alpha_gain_abs"] == pytest.approx(20.346, abs=0.01)
        assert obj["background_delta_eps"] == pytest.approx(1.22, abs=1e-9)
        assert obj["balanced"] is True

    def test_pt_solve_reads_the_loss_material_alpha(self, tmp_path, capsys):
        medium = {"eps_b": 2.0, "omega0_trad": 1000.0, "gamma_trad": 67.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"materials": {"gain": {**medium, "alpha": -1.0},
                                                  "loss": {**medium, "alpha": 7.0}}}))
        assert cli_main(["pt-solve", "--config", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["alpha_l"], obj["alpha_gain"], obj["balanced"]) == (7.0, -7.0, True)

    def test_pt_solve_first_set(self, capsys):
        rc = cli_main(["pt-solve", "--preset", "set1", "--alpha-l", "7"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["omega_pt_over_omega0_gain"] == 1.0
        assert obj["alpha_gain"] == pytest.approx(-7.0, rel=1e-12)

    def test_locate_command(self, capsys):
        rc = cli_main(["locate", "--kind", "exceptional_point", "--preset",
                       "set1", "--bracket", "800:1000",
                       "--omega-trad", "1000"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["abscissa"] == pytest.approx(889.7, abs=1.5)

    def test_presets_listing(self, capsys):
        rc = cli_main(["presets"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"set1", "set2"}
        assert obj["set2"]["loss"]["eps_b"] == 3.22
        assert obj["set1"]["layer_thickness_nm"] == pytest.approx(10.0)

    def test_config_file(self, tmp_path, capsys):
        cfg = {"preset": "set1",
               "sweep": {"variable": "alpha_l", "start": 1, "stop": 100,
                         "count": 4, "spacing": "log"},
               "fixed": {"omega_trad": 1000.0},
               "observables": ["noise"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli_main(["sweep", "--config", str(path), "--format", "json",
                       "--reproducible"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["columns"][:2] == ["alpha_l", "s_right"]
        assert len(obj["rows"]) == 4

    def test_cli_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "set1"}))
        rc = cli_main(["sweep", "--config", str(path), "--preset", "set2",
                       "--range", "1:5:2", "--linear", "--obs", "scattering",
                       "--format", "json", "--reproducible"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["preset"] == "set2"

    def test_config_error_exit_code(self, capsys):
        assert cli_main(["sweep", "--preset", "set1", "--range", "9:1:5"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"presets": "set1"}))
        assert cli_main(["sweep", "--config", str(path)]) == 2

    @pytest.mark.parametrize("config,argv", [
        ({"fixed": 3}, ["sweep"]),
        ({"sweep": {"start": None}}, ["sweep"]),
        ({"sweep": {"cuont": 5}}, ["sweep"]),
        (None, ["sweep", "--var", "omega", "--range", "0:2000:3"]),
        (None, ["sweep", "--thickness-nm", "-1"]),
        (None, ["sweep", "--range", "1:inf:3"]),
        (None, ["pt-solve", "--alpha-l", "-1"]),
        (None, ["locate", "--kind", "atr", "--var", "omega", "--bracket", "0:900"]),
        (None, ["locate", "--kind", "atr", "--bracket=-5:50"]),
        ({"check_sum_rule": "false"}, ["sweep"]),     # must be a JSON boolean
        ({"sweep": {"count": 3.9}}, ["sweep"]),       # must be integral
        ({"sweep": {"start": "1"}}, ["sweep"]),       # must be a JSON number
        ({"input_state": {"phi_xi": "5"}}, ["sweep"]),
        (None, ["locate", "--kind", "atr", "--bracket", "5:50", "--tol", "1e-17"]),
        (None, ["presets", "--out", "/nonexistent/x.json"]),        # cannot be written
        (None, ["sweep", "--range", "1:10:3", "--out", "/nonexistent/d/x.csv"]),
        # a grid numpy cannot build: its width overflows, or it refuses the count
        ({"materials": {
            "gain": {"eps_b": 2.0, "alpha": -3.0, "omega0_trad": 1000.0, "gamma_trad": 67.0},
            "loss": {"eps_b": 2.5, "alpha": 3.0, "omega0_trad": 1100.0, "gamma_trad": 80.0}}},
         ["sweep", "--range=-1e308:1e308:3", "--omega-trad", "1000", "--linear"]),
        (None, ["sweep", "--range", "1:2:100000000000000000000"]),
        ({"sweep": {"count": 2**62}}, ["sweep"]),
        # a grid value that rounds past the largest float
        (None, ["sweep", "--range", "2:1.7976931348623157e308:2", "--log"]),
        (None, ["sweep", "--range", "0:1.7976931348623157e308:4"]),
        # an input state whose sinh(2 xi) or phase offsets overflow
        *[({"input_state": {"xi": 400}}, ["sweep", *SMALL, "--obs", obs])
          for obs in ("variance", "mandel")],
        ({"input_state": {"xi": 400}},
         ["locate", "--preset", "set2", "--kind", "squeeze_crossing", "--bracket", "10:30"]),
        ({"input_state": {"phi_lo": 1e308}}, ["sweep", *SMALL, "--obs", "variance"]),
        ({"input_state": {"phi_rho": -1e308}}, ["sweep", *SMALL, "--obs", "mandel"]),
    ])
    def test_bad_input_exits_2(self, config, argv, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1

    @pytest.mark.parametrize("config, argv, err", [
        ({"observables": 5}, [], "observables must be a list of family names"),
        ({"preset": None}, [], "either a preset or explicit materials is required"),
        ({"preset": "set9"}, [], "unknown preset 'set9'"),
        ({"theory": "x"}, [], "theory must be one of ('exact', 'effective', 'both')"),
        ({"sweep": {"spacing": "x"}}, [], "spacing must be 'linear' or 'log'"),
        ({"observables": []}, [], "at least one observable is required"),
        ({"mode": "x"}, [], "unknown mode 'x'; expected full_complex or paper_real_part"),
        ({"materials": 5}, [], "materials must be an object with gain and loss"),
        (None, ["--temperature-k", "-1"], "temperature must be nonnegative"),
        (None, ["--range", "1:2"], "--range expects START:STOP:COUNT, got '1:2'"),
        (None, ["--range", "a:b:c"],
         "bad --range 'a:b:c': could not convert string to float: 'a'"),
        (None, ["--config", "{tmp}/absent.json"],
         "cannot read config: [Errno 2] No such file or directory: '{tmp}/absent.json'"),
        ("not json", [], "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ], ids=["observables-type", "no-preset", "unknown-preset", "theory", "spacing",
            "no-observables", "mode", "materials-type", "temperature", "range-fields",
            "range-numbers", "config-missing", "config-not-json"])
    def test_each_input_error_prints_one_config_error_line(self, config, argv, err, tmp_path,
                                                           capsys):
        # config is the config file's JSON, or its text, or None for no file
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = argv + ["--config", str(path)]
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert cli_main(["sweep", *argv]) == 2
        assert capsys.readouterr() == ("", f"config error: {err.format(tmp=tmp_path)}\n")

    def test_a_grid_numpy_cannot_allocate_is_a_config_error(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np, "linspace", refuse)
        assert cli_main(["sweep", "--range", "1:2:3"]) == 2
        assert capsys.readouterr().err == ("config error: cannot build a grid of 3 points: "
                                           "Unable to allocate\n")

    @pytest.mark.parametrize("config, argv, variable, abscissa", [
        ({"sweep": {"variable": "omega"}}, ["--bracket", "650:810", "--alpha-l", "24"],
         "omega", 722.7290753700495),
        ({"sweep": {"variable": "temperature"}},
         ["--bracket", "0:20000", "--alpha-l", "24", "--omega-trad", "700"],
         "temperature", 2466.75),
        (None, ["--var", "temperature", "--bracket", "0:20000", "--alpha-l", "24",
                "--omega-trad", "700"], "temperature", 2466.75),
    ], ids=["config-omega", "config-temperature", "flag-temperature"])
    def test_locate_sweeps_the_configured_variable(self, config, argv, variable, abscissa,
                                                   tmp_path, capsys):
        # locate's variable comes from the config unless --var is given
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert cli_main(["locate", "--preset", "set1", "--kind", "squeeze_crossing"]
                        + argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["variable"] == variable
        assert out["abscissa"] == pytest.approx(abscissa, rel=1e-6)

    @pytest.mark.parametrize("count", [5, 5.0])
    def test_integral_count_is_accepted(self, count, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"start": 1, "stop": 10, "count": count}}))
        assert cli_main(["sweep", "--config", str(path), "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 5

    @pytest.mark.parametrize("kind,tol", [("exceptional_point", "0"),
                                          ("accidental_degeneracy", "0"),
                                          ("atr", "-1"), ("atr", "nan")])
    def test_bad_tol_exits_2_promptly(self, kind, tol):
        # a tol below one ulp never ended the bisection; run it in a
        # subprocess so that a regression fails on the timeout, not hangs
        src = str(Path(ptbilayer.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "ptbilayer", "locate", "--kind", kind,
             "--bracket", "30:80", "--omega-trad", "1000", f"--tol={tol}"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: tol")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("tol", ["1", "1e308"])
    def test_a_tol_of_one_or_more_is_refused(self, tol, capsys):
        # a bracket whose ends share a sign is that narrow before the first
        # step, so locate returned the bracket's midpoint (12.25) with exit 0
        argv = ["locate", "--kind", "atr", "--bracket", "0.5:24", "--omega-trad", "1000"]
        assert cli_main(argv + [f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == (
            f"config error: tol must be at least 2.22e-16 and less than 1, got {float(tol)!r}\n")
        with pytest.raises(ConfigError, match="less than 1"):
            ThresholdQuery("atr", (0.5, 24.0), tol=float(tol))

    @pytest.mark.parametrize("argv", [
        ["pt-solve", "--thickness-nm", "500"],
        ["presets", "--preset", "set2"],
        ["compare", "--theory", "exact"],
        ["locate", "--kind", "atr", "--bracket", "5:50", "--format", "csv"],
        ["locate", "--kind", "atr", "--bracket", "5:50", "--reproducible"],
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_each_command_accepts_only_the_flags_it_reads(self):
        point = {"--config", "--out", "--preset", "--alpha-l"}
        stack = point | {"--omega-trad", "--temperature-k", "--thickness-nm", "--mode",
                         "--check"}
        table = stack | {"--format", "--reproducible", "--var", "--range", "--log",
                         "--linear", "--obs"}
        want = {"sweep": table | {"--theory"}, "compare": table,
                "locate": stack | {"--theory", "--kind", "--bracket", "--var", "--tol"},
                "pt-solve": point, "presets": {"--out"}}
        sub = next(a for a in sweep_cli._build_parser()._actions
                   if a.dest == "command").choices
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.items()}
        assert got == want
        assert [len(got[c]) for c in want] == [17, 16, 14, 4, 1]

    def test_the_cached_parser_carries_nothing_between_calls(self, capsys):
        runs = [["sweep", "--range", "1:10:3", "--obs", "noise,variance", "--check",
                 "--theory", "effective", "--format", "json", "--reproducible"],
                ["sweep"],
                ["compare", "--range", "1:10:3", "--mode", "paper"],
                ["locate", "--var", "omega", "--kind", "squeeze_crossing",
                 "--bracket", "650:810", "--alpha-l", "24"],
                ["pt-solve"]]

        def run(argv):
            rc = cli_main(argv)
            return (rc, *capsys.readouterr())

        sweep_cli._build_parser.cache_clear()
        in_a_row = [run(argv) for argv in runs]
        assert sweep_cli._build_parser.cache_info().misses == 1
        assert [rc for rc, _, _ in in_a_row] == [0] * len(runs)
        for argv, got in zip(runs, in_a_row):
            sweep_cli._build_parser.cache_clear()     # a freshly built parser
            assert run(argv) == got, argv

    def test_all_failed_sweep_writes_table_and_exits_4(self, capsys):
        rc = cli_main(["sweep", "--range", "2000:3000:3", "--obs", "eta",
                       "--thickness-nm", "400"])
        out, err = capsys.readouterr()
        assert rc == 4
        assert len(out.splitlines()) == 4          # header and three rows
        assert err == "evaluation failed at every grid point: 3 BranchAmbiguity\n"

    def test_row_failure_in_locate_exits_4_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")         # numpy overflow would raise
            rc = cli_main(["locate", "--kind", "atr", "--bracket", "100:1000",
                           "--omega-trad", "1000", "--thickness-nm", "12000",
                           "--mode", "paper"])
        assert rc == 4
        assert capsys.readouterr().err == "evaluation failed at 1000.0: SingularTransfer\n"

    @pytest.mark.parametrize("error", grid.ROW_ERRORS, ids=lambda error: error.__name__)
    def test_each_row_error_in_locate_exits_4(self, error, monkeypatch, capsys):
        # whichever failure ends a table row ends a locate evaluation with exit
        # 4 and its name, and no traceback
        def fails(chain):
            raise error("raised by the test")

        monkeypatch.setattr(scattering, "scattering_from_transfer", fails)
        rc = cli_main(["locate", "--kind", "atr", "--bracket", "5:50"])
        assert (rc, *capsys.readouterr()) == (
            4, "", f"evaluation failed at 5.0: {error.__name__}\n")

    @pytest.mark.parametrize("preset", ["set1", "set2"])
    def test_overflowing_pt_solve_exits_4_without_warnings(self, preset, capsys):
        # set1's gain amplitude stays finite but its permittivities overflow;
        # set2's gain amplitude overflows itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")         # numpy overflow would raise
            rc = cli_main(["pt-solve", "--preset", preset, "--alpha-l", "1e308"])
        out, err = capsys.readouterr()
        assert rc == 4
        assert out == ""
        assert err.startswith("evaluation failed at alpha_l=1e+308: the balanced stack "
                              "overflows (gain amplitude ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha_l, code", [("0.2", 3), ("0.5", 0)])
    def test_pt_solve_without_a_balance_frequency_exits_3(self, alpha_l, code, capsys):
        # below alpha_l of about 0.213 set2's real-part mismatch keeps its sign
        rc = cli_main(["pt-solve", "--preset", "set2", "--alpha-l", alpha_l])
        out, err = capsys.readouterr()
        assert rc == code
        if code == 3:
            assert out == ""
            assert err == ("no sign change: balance: the real-part mismatch at alpha_l=0.2 "
                           "keeps its sign from 0.01 to 100 times the larger resonance, "
                           "1200 Trad/s\n")
        else:
            assert json.loads(out)["balanced"] is True

    def test_pt_solve_states_a_subnormal_scan_without_underflow(self, tmp_path, capsys):
        # equal backgrounds: the closed-form balance frequency underflows to 0, and
        # 0.01 times the resonance would print as 0
        medium = {"eps_b": 1.0, "alpha": 700.0, "omega0_trad": 5e-324, "gamma_trad": 300.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"materials": {"gain": medium, "loss": medium}}))
        rc = cli_main(["pt-solve", "--config", str(path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == ("no sign change: balance: the real-part mismatch at alpha_l=700.0 "
                       "keeps its sign from 0.01 to 100 times the larger resonance, "
                       "4.94066e-324 Trad/s\n")

    def test_the_largest_accepted_squeeze_evaluates(self, tmp_path, capsys):
        # the largest xi whose sinh(2 xi) and sinh(xi)^2 are finite floats: the
        # variance and Mandel paths reach their tables and scalars without an exception
        def accepted(xi):
            try:
                sweep_cli.SqueezedCoherentInput(xi=xi)
            except ValueError:
                return False
            return True

        lo, hi = 1.0, 1000.0
        while math.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        assert 355.0 < lo < 356.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input_state": {"xi": lo}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main(["sweep", *SMALL, "--obs", "variance,mandel", "--theory", "both",
                           "--config", str(path)])
            assert (rc, capsys.readouterr().err) == (0, "")
            for kind in ("squeeze_crossing", "mandel_crossing"):
                rc = cli_main(["locate", "--preset", "set2", "--kind", kind,
                               "--bracket", "10:30", "--config", str(path)])
                assert rc == 3 and capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("argv, rc, statuses, err", [
        (["sweep", "--range", "1:29.85074626865672:2"], 0, ["ok", "SingularTransfer"], ""),
        (["locate", "--kind", "atr", "--bracket", "1:29.85074626865672"], 4, [],
         "evaluation failed at 29.85074626865672: SingularTransfer\n"),
        (["sweep", "--range", "1:29.85074626865672:2", "--thickness-nm", "1e290",
          "--theory", "effective"], 4, ["LasingPole", "BranchAmbiguity"],
         "evaluation failed at every grid point: 1 BranchAmbiguity, 1 LasingPole\n"),
        (["locate", "--kind", "atr", "--bracket", "29.85074626865672:30", "--thickness-nm",
          "1e290", "--theory", "effective"], 4, [],
         "evaluation failed at 29.85074626865672: BranchAmbiguity\n"),
    ], ids=["sweep", "locate", "sweep-effective", "locate-effective"])
    def test_a_zero_permittivity_ends_its_row(self, argv, rc, statuses, err, capsys):
        # set1's gain permittivity is exactly 0 at alpha_l = 29.85... and 1e-310 rad/s:
        # the chain is singular there, and the effective cell phase is nan in the
        # grid kernel and in the scalar bloch_index that locate calls
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([*argv, "--omega-trad", "1e-322"]) == rc
        out, stderr = capsys.readouterr()
        assert stderr == err
        assert [row.split(",")[-1] for row in out.splitlines()[1:]] == statuses

    @pytest.mark.parametrize("argv, err", [
        (["sweep", "--range", "0:1:2", "--obs", "eta"],
         "evaluation failed at every grid point: 2 BranchAmbiguity\n"),
        (["locate", "--kind", "eta_unity", "--bracket", "0:1"],
         "evaluation failed at 0.0: BranchAmbiguity\n"),
        (["locate", "--kind", "atr", "--bracket", "0:1", "--theory", "effective"],
         "evaluation failed at 0.0: BranchAmbiguity\n"),
    ], ids=["sweep-eta", "eta_unity", "atr-effective"])
    def test_an_overflowed_cell_phase_exits_4(self, argv, err, capsys):
        # 2 k l overflows: the effective slab's cell phase is far above pi/2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([*argv, "--omega-trad", "1e6", "--thickness-nm", "1e308"])
        assert (rc, capsys.readouterr().err) == (4, err)

    @pytest.mark.parametrize("argv", [
        ["compare", "--preset", "set2", "--range", "5:30:6"],
        ["compare", "--preset", "set1", "--omega-trad", "1000", "--range", "1:100:6"],
    ], ids=["off-balance", "balance"])
    def test_a_compare_calls_no_scalar_effective_function(self, argv, monkeypatch, capsys):
        # the grid kernel evaluates the slab over arrays; off balance and at
        # balance, where the flux takes a central difference of two more slabs
        calls = []
        for name in ("bloch_index", "round_trip", "effective_amplitudes", "effective_noise"):
            monkeypatch.setattr(effective, name, lambda *a, name=name: calls.append(name))
        assert cli_main([*argv, "--obs", "scattering,eigenvalues,noise,variance,mandel,eta"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6 and all(row.endswith(",ok") for row in rows)
        assert calls == []

    def test_an_effective_locate_builds_one_slab_per_evaluation(self, monkeypatch, capsys):
        calls, build = [], effective.effective_amplitudes
        monkeypatch.setattr(effective, "effective_amplitudes",
                            lambda *a: calls.append(a) or build(*a))
        assert cli_main(["locate", "--preset", "set2", "--kind", "squeeze_crossing",
                         "--bracket", "10:30", "--theory", "effective"]) == 0
        assert len(calls) == json.loads(capsys.readouterr().out)["evaluations"]

    def test_underflowed_thermal_ratio_runs_to_its_limit(self, capsys):
        # hbar w / kT underflows to 0: the occupation is inf, so the sweep's
        # noise cells are inf and the Mandel scalar of locate is nan at both ends
        stack = ["--preset", "set1", "--omega-trad", "1e-24", "--temperature-k", "1e308"]
        rc = cli_main(["sweep", *stack, "--range", "1:2:2", "--obs", "noise"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[1:3] for row in rows] == [["inf", "inf"]] * 2
        rc = cli_main(["locate", *stack, "--kind", "mandel_crossing", "--bracket", "1:10"])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == ("no sign change: mandel_crossing: no sign change on [1.0, 10.0] "
                       "(f(lo)=nan, f(hi)=nan)\n")

    @pytest.mark.parametrize("value", ["5e-324", "1e-310"])
    @pytest.mark.parametrize("flag", ["--omega-trad", "--temperature-k", "--thickness-nm"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--obs", workloads.ALL_FAMILIES],
        ["compare", "--obs", workloads.ALL_FAMILIES],
        ["locate", "--kind", "squeeze_crossing"],
        ["locate", "--kind", "mandel_crossing", "--theory", "effective"],
        ["locate", "--kind", "eta_unity"],
    ], ids=["sweep", "compare", "squeeze", "mandel-effective", "eta"])
    def test_subnormal_stack_values_end_without_a_traceback(self, command, flag, value,
                                                            capsys):
        # a frequency, temperature or thickness that underflows where it is
        # converted or multiplied ends in a table, a located root or one error line
        grid = ["--bracket", "1:2"] if command[0] == "locate" else ["--range", "1:2:2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([*command, *grid, flag, value])
        out, err = capsys.readouterr()
        assert rc in (0, 2, 3, 4)
        assert err.count("\n") == (rc != 0) and err.endswith("\n") == (rc != 0)
        if flag == "--thickness-nm" and value == "5e-324":
            assert (rc, err) == (2, "config error: thickness 5e-324 nm underflows to 0 m\n")
        elif command[0] != "locate" and value == "5e-324":
            assert rc == 0    # at 1e-310 Trad/s the Bloch index's acos cancels to 0

    def test_omega_runs_do_not_look_up_the_default_frequency(self, monkeypatch, capsys):
        # set2's gain amplitude is pinned at its balance frequency, so that
        # frequency is solved once; the default operating frequency, which
        # omega runs never read, is not looked up again
        media.set2_gain_alpha()
        calls, solve = [], media.set2_operating_frequency
        monkeypatch.setattr(media, "set2_operating_frequency",
                            lambda: calls.append(1) or solve())
        assert cli_main(["sweep", "--preset", "set2", "--var", "omega", "--range",
                         "300:2000:5", "--format", "json", "--reproducible"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["fixed"] == {
            "alpha_l": 2.0, "omega_trad": None, "temperature_k": 0.0}
        assert cli_main(["locate", "--preset", "set2", "--kind", "squeeze_crossing",
                         "--var", "omega", "--bracket", "700:900"]) == 0
        assert calls == []

    def test_failed_verification_exits_4(self, monkeypatch, capsys):
        # bisection lands on a narrow positive spike at 20; the verification
        # points on either side of it are both negative
        monkeypatch.setattr(sweep_cli, "_threshold_scalar", lambda spec, kind: (
            lambda x: 1.0 if 20.0 <= x < 20.000001 or x >= 30.0 else -1.0))
        rc = cli_main(["locate", "--kind", "atr", "--bracket", "10:30.000001"])
        assert rc == 4
        assert capsys.readouterr().err.startswith("bisection verification failed at 19.99")

    def test_locate_with_both_theories_reads_only_the_exact_scalar(self, monkeypatch,
                                                                   capsys):
        argv = ["locate", "--kind", "atr", "--bracket", "5:50", "--omega-trad", "1000"]
        assert cli_main(argv) == 0
        exact = json.loads(capsys.readouterr().out)

        def unused(*args):
            raise AssertionError("the effective slab was built")

        monkeypatch.setattr(effective, "bloch_index", unused)
        assert cli_main(argv + ["--theory", "both"]) == 0
        assert json.loads(capsys.readouterr().out) == exact

    def test_no_sign_change_exit_code(self, capsys):
        rc = cli_main(["locate", "--kind", "atr", "--preset", "set2",
                       "--bracket", "1:1000"])
        assert rc == 3
        assert "no sign change" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--range", "1:10:3", "--linear", "--obs", "noise"],
        ["sweep", "--range", "1:10:3", "--linear", "--obs", "scattering"],
        ["sweep", "--range", "1:10:3", "--linear", "--obs", "eigenvalues,eta"],
        ["compare", "--range", "1:10:3", "--linear", "--obs", "scattering"],
        ["locate", "--kind", "atr", "--bracket", "5:50"],
        ["locate", "--kind", "accidental_degeneracy", "--bracket", "30:80"],
        ["locate", "--kind", "exceptional_point", "--bracket", "850:950"],
        ["locate", "--kind", "squeeze_crossing", "--bracket", "1:10", "--theory", "both"],
    ], ids=["sweep-noise", "sweep-scattering", "sweep-eigenvalues", "compare-scattering",
            "atr", "accidental_degeneracy", "exceptional_point", "squeeze_crossing"])
    def test_sum_rule_breach_exit_code(self, argv, monkeypatch, capsys):
        # --check checks the sum rule wherever the exact chain is evaluated,
        # whatever the table prints: sweeps in the batched kernel, locate in
        # its scalar, both through noise.enforce_sum_rule
        monkeypatch.setattr(noise, "sum_rule_residuals", lambda *a, **k: 1.0)
        rc = cli_main(argv + ["--preset", "set1", "--omega-trad", "1000", "--check"])
        assert rc == 4
        assert capsys.readouterr().err == ("internal consistency failure: sum rule "
                                           "residual 1.000e+00 exceeds 1.0e-10\n")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--range", "1:10:3", "--obs", "noise,variance", "--theory", "effective"],
        ["sweep", "--range", "1:10:3", "--obs", "eta"],
        ["locate", "--kind", "eta_unity", "--bracket", "100:200"],
        ["locate", "--kind", "mandel_crossing", "--bracket", "1:10", "--theory", "effective"],
    ], ids=["effective-sweep", "eta-sweep", "eta_unity", "effective-locate"])
    def test_check_without_the_exact_chain_has_nothing_to_check(self, argv, monkeypatch,
                                                                 capsys):
        calls = []
        monkeypatch.setattr(noise, "sum_rule_residuals", lambda *a: calls.append(a) or 1.0)
        assert cli_main(argv + ["--preset", "set1", "--omega-trad", "1000", "--check"]) == 0
        assert calls == []

    def test_check_with_paper_mode_is_config_error(self):
        rc = cli_main(["sweep", "--preset", "set1", "--range", "1:10:3",
                       "--linear", "--obs", "noise", "--check",
                       "--mode", "paper"])
        assert rc == 2

    def test_paper_mode_sweep_runs(self, capsys):
        rc = cli_main(["sweep", "--preset", "set1", "--range", "1:10:3",
                       "--linear", "--obs", "scattering", "--mode", "paper",
                       "--format", "json", "--reproducible"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["metadata"]["mode"] == "paper_real_part"
