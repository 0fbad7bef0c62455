import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subdecay
from subdecay import cli
from subdecay.cli import (RunConfig, build_parser, conjectured_rate, main, run,
                          table_configs)
from subdecay.errors import ConfigError, NumericalError

SMALL = {
    "orders": [0.9, 0.5],
    "ic_case": "ii",
    "T": 50.0,
    "n_time": 250,
    "n_space": 24,
    "window": [10.0, 50.0],
    "stride": 5,
}

# values a RunConfig key accepts, and values of every wrong kind: booleans,
# None, strings, floats where ints belong, ints past the float range, and
# lists nested too deep or not deep enough
_VALID = {
    "orders": st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3).map(
        lambda orders: sorted(orders, reverse=True)),
    "ic_case": st.sampled_from(["i", "ii", "iii"]),
    "scheme": st.sampled_from(["semi-implicit", "fully-implicit"]),
    "diffusivities": st.lists(st.floats(0.5, 2.0) | st.integers(1, 2), min_size=2, max_size=3),
    "couplings": st.sampled_from([[[1, -0.5], [-0.5, 1]],
                                  [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]]]),
    "ic_scale": st.floats(0.0, 2.0, exclude_min=True) | st.integers(1, 2),
    "T": st.floats(50.0, 200.0) | st.integers(50, 200),
    "n_time": st.integers(50, 400),
    "n_space": st.integers(4, 32),
    "window": st.just([10.0, 50.0]),
    "stride": st.integers(1, 5),
    "output": st.none(),
}
_JUNK = st.one_of(
    st.booleans(), st.none(), st.text(max_size=2), st.floats(), st.integers(-2, 3),
    st.sampled_from([10**308, 10**400]),
    st.lists(st.one_of(st.floats(), st.integers(-2, 3), st.booleans(), st.none(),
                       st.lists(st.floats(-1.0, 1.0) | st.booleans(), max_size=3)), max_size=3))


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({**SMALL, "typo_key": 1})
        with pytest.raises(ConfigError, match=r"unknown config keys: \['mode'\]"):
            RunConfig.from_dict({**SMALL, "mode": "pde"})

    def test_domain_length_is_not_a_key(self, tmp_path, capsys):
        # the standard profiles vanish at both walls only on (0, pi)
        path = tmp_path / "length.json"
        path.write_text(json.dumps({**SMALL, "L": 2.0}))
        assert main(["pde", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['L']\n"
        assert RunConfig.from_dict(SMALL).grid().L == math.pi

    @pytest.mark.parametrize("field, value", [
        ("orders", "0.9"), ("ic_case", 2), ("scheme", 1), ("diffusivities", 1.0),
        ("couplings", "C2"), ("ic_scale", "1"), ("T", "50"),
        ("n_time", 250.0), ("n_space", "24"), ("window", 10.0), ("stride", 1.5),
        ("output", 3)])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"key '{field}' has wrong type"):
            RunConfig.from_dict({**SMALL, field: value})

    @pytest.mark.parametrize("field, value", [
        ("orders", [True, 0.5]), ("diffusivities", [1.0, False]),
        ("couplings", [[1.0, -1.0], [True, 1.0]]), ("window", [10.0, True]),
        ("ic_scale", True), ("T", False), ("n_time", True),
        ("n_space", True), ("stride", True)])
    def test_boolean_refused_where_a_number_belongs(self, field, value, tmp_path, capsys):
        # JSON true and false are Python ints: they must not pass as 1 and 0
        raw = {**SMALL, field: value}
        with pytest.raises(ConfigError, match=f"key '{field}' holds a boolean"):
            RunConfig.from_dict(raw)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(raw))
        assert main(["pde", "--config", str(path)]) == 1
        assert f"key '{field}' holds a boolean" in capsys.readouterr().err

    def test_null_means_default_only_where_documented(self):
        for key in ("diffusivities", "couplings", "window", "output"):
            base = {k: v for k, v in SMALL.items() if k != key}
            assert RunConfig.from_dict({**base, key: None}) == RunConfig.from_dict(base)
        for key in ("T", "scheme", "n_time", "ic_case"):
            with pytest.raises(ConfigError, match=f"key '{key}' has wrong type NoneType"):
                RunConfig.from_dict({**SMALL, key: None})

    @pytest.mark.parametrize("field, value", [
        ("orders", [0.9, None]), ("couplings", [1.0, -1.0]), ("window", [10.0]),
        pytest.param("n_time", 10**400, id="n_time-beyond-float"),
        ("orders", [0.9, [0.5]]), ("diffusivities", [[1], [1]])])
    def test_malformed_entries_rejected(self, field, value):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, field: value})
        assert err.value.problems and all(field in p for p in err.value.problems)

    @pytest.mark.parametrize("raw, problems", [
        (dict(orders=[True, 0.5], ic_case="ii", n_time=400.7, n_space=24.9, T="50",
              stride=5.5, ic_scale="2"),
         ["key 'orders' holds a boolean where a number belongs",
          "key 'ic_scale' has wrong type str", "key 'T' has wrong type str",
          "key 'n_time' has wrong type float", "key 'n_space' has wrong type float",
          "key 'stride' has wrong type float"]),
        (dict(orders=[True, 0.5], ic_case="ii", stride=True, n_time=40, n_space=8, T=50.0),
         ["key 'orders' holds a boolean where a number belongs",
          "key 'stride' holds a boolean where a number belongs"]),
        (dict(orders="ab", ic_case="ii"), ["key 'orders' has wrong type str"]),
        ({**SMALL, "couplings": [1.0, -1.0]},
         ["key 'couplings' holds an entry of type float where a list belongs"]),
        ({**SMALL, "couplings": [[1.0, -1.0], [-1.0, [1.0]]]},
         ["key 'couplings' holds an entry of type list where a number belongs"]),
        ({**SMALL, "orders": [0.9, [0.5]], "diffusivities": [[1], [1]]},
         ["key 'orders' holds an entry of type list where a number belongs",
          "key 'diffusivities' holds an entry of type list where a number belongs"]),
        ({**SMALL, "n_time": 10**400}, ["key 'n_time' holds an int beyond the float range"]),
        ({**SMALL, "ic_scale": -10**400}, ["key 'ic_scale' holds an int beyond the float range"])],
        ids=["six-keys", "booleans", "string-orders", "flat-couplings", "deep-couplings",
             "nested-lists", "huge-int", "huge-float-key"])
    def test_direct_construction_refuses_what_json_refuses(self, raw, problems):
        for build in (lambda: RunConfig(**raw), lambda: RunConfig.from_dict(raw)):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.problems == problems

    @settings(max_examples=200, deadline=None)
    @given(raw=st.fixed_dictionaries(
        {key: st.one_of(_VALID[key], _JUNK) for key in ("orders", "ic_case")},
        optional={key: st.one_of(_VALID[key], _JUNK) for key in _VALID
                  if key not in ("orders", "ic_case")}))
    def test_entry_points_agree(self, raw):
        # from_dict adds only the unknown and missing key checks to the constructor's
        outcomes = []
        for build in (lambda: RunConfig(**raw), lambda: RunConfig.from_dict(raw)):
            try:
                outcomes.append(build())
            except ConfigError as exc:
                assert exc.problems
                outcomes.append(exc.problems)
        assert outcomes[0] == outcomes[1]

    def test_missing_required_keys_enumerated(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({})
        assert "orders" in str(err.value) and "ic_case" in str(err.value)

    def test_all_violations_enumerated(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({"orders": [0.5, 0.9], "ic_case": "ii",
                                 "stride": 0, "T": -1.0})
        msg = str(err.value)
        assert "non-increasing" in msg and "stride" in msg and "positive" in msg
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, "diffusivities": [-1.0, 1.0], "stride": 0})
        assert err.value.problems == [
            "diffusivities must be finite and positive, got -1.0", "stride must be >= 1"]

    @pytest.mark.parametrize("field, value, problem", [
        ("diffusivities", [0, 1], "diffusivities must be finite and positive, got 0.0"),
        ("couplings", [[-1, 0], [0, 1]], "couplings need c[0][0] >= 0, got -1.0")])
    def test_system_rules_checked_before_the_run(self, field, value, problem):
        # SystemSpec's rules bind the config: no run starts to find them
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, field: value})
        assert err.value.problems == [problem]

    @pytest.mark.parametrize("raw", [5, None, [1, 2], "cfg"], ids=repr)
    def test_non_object_rejected(self, raw):
        with pytest.raises(ConfigError, match="^config must be a JSON object$"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("orders", [[], [0.9, 0.8, 0.7, 0.6], [0.9]])
    def test_unsupported_count_is_the_only_fault(self, orders):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({"orders": orders, "ic_case": "i"})
        assert err.value.problems == [
            f"component count {len(orders)} not supported (2 or 3)"]

    def test_round_trip_is_fixed_point(self):
        cfg = RunConfig.from_dict(dict(SMALL))
        once = cfg.to_dict()
        again = RunConfig.from_dict(once).to_dict()
        assert once == again

    def test_unknown_case_for_k(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, "ic_case": "iii"})
        assert err.value.problems == ["ic_case 'iii' undefined for K=2; valid: ['i', 'ii']"]

    @pytest.mark.parametrize("field, value", [
        ("T", math.inf), ("ic_scale", math.nan), ("ic_scale", math.inf),
        ("diffusivities", [1.0, math.inf]), ("couplings", [[1.0, -1.0], [-1.0, math.nan]]),
        ("window", [10.0, math.inf])])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            RunConfig.from_dict({**SMALL, field: value})

    def test_run_beyond_physical_memory_refused(self, monkeypatch):
        """The L1 weights of 10**9 steps, or the memory's states at 10**8
        nodes, are refused, naming the size, before anything is allocated."""
        assert 0.0 < cli._MEMORY_GB < math.inf
        monkeypatch.setattr(cli, "_MEMORY_GB", 16.0)
        for n_time, n_space, gb in ((10**9, 128, "96"), (2, 10**8, "133")):
            with pytest.raises(ConfigError) as err:
                # stride 1: the default 10 would also exceed n_time = 2
                RunConfig.from_dict({**SMALL, "n_time": n_time, "n_space": n_space,
                                     "stride": 1})
            assert err.value.problems == [
                f"n_time and n_space need {gb} GB for the run, more than the "
                "16 GB of physical memory"]
        RunConfig.from_dict({**SMALL, "n_time": 10**6, "n_space": 128})  # 0.096 GB

    def test_unknown_scheme_refused(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, "scheme": "crank-nicolson"})
        assert err.value.problems == ["unknown scheme 'crank-nicolson'"]

    def test_missing_output_directory_refused(self, tmp_path):
        out = tmp_path / "missing" / "run.csv"
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, "output": str(out)})
        assert err.value.problems == [f"output directory {out.parent} does not exist"]
        RunConfig.from_dict({**SMALL, "output": str(tmp_path / "run.csv")})

    @pytest.mark.parametrize("key, value, problem", [
        ("stride", 400, "only 9 samples inside window (200.0, 1000.0); need >= 10"),
        ("window", [999, 1000], "only 1 samples inside window (999.0, 1000.0); need >= 10")])
    def test_too_few_kept_levels_to_fit_refused(self, key, value, problem):
        # 4000 steps of 0.25 would run before the fit found the window short
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({"orders": [0.9, 0.5], "ic_case": "ii", key: value})
        assert err.value.problems == [problem]

    def test_ten_kept_levels_suffice(self):
        cfg = RunConfig.from_dict({"orders": [0.9, 0.5], "ic_case": "ii", "stride": 320})
        times = cfg.grid().times[::320]
        kept = times[subdecay.decay.window_mask(times, cfg.fit_window())]
        assert kept.tolist() == [240.0 + 80.0 * j for j in range(10)]

    def test_readme_documents_every_field(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("### PDE run configuration", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        keys = re.findall(r'^  "(\w+)":', block, flags=re.MULTILINE)
        assert keys == [f.name for f in dataclasses.fields(RunConfig)]

    def test_defaults_fill_in(self):
        cfg = RunConfig.from_dict({"orders": [0.9, 0.5], "ic_case": "i"})
        assert cfg.couplings == ((1.0, -1.0), (-1.0, 1.0))
        assert cfg.n_time == 4000 and cfg.n_space == 128


class TestRun:
    def test_pipeline_and_determinism(self):
        cfg = RunConfig.from_dict(dict(SMALL))
        buf1, buf2 = io.StringIO(), io.StringIO()
        rep1 = run(cfg, csv_sink=buf1)
        rep2 = run(cfg, csv_sink=buf2)
        assert buf1.getvalue() == buf2.getvalue()  # bit-identical CSV
        assert rep1.component_fits[0].exponent == rep2.component_fits[0].exponent
        header = buf1.getvalue().splitlines()[0]
        assert header == "t,norm_1,norm_2,pointwise_exp_1,pointwise_exp_2"
        assert rep1.stability_margin == 0.0
        assert not rep1.assumption_ok  # reference setup exceeds the condition
        assert "exponent" in rep1.to_text()

    @pytest.mark.parametrize("couplings, ic_case, margin, assumption_ok, stability", [
        # kappa0 / C^2 = 1 on (0, pi) against c_sup = 1: not strictly above
        ([[1, -1], [-1, 1]], "ii", 0.0, False,
         "satisfied (marginal: disks touch the unit circle)"),
        ([[1, -0.5], [-0.5, 1]], "ii", 0.5, True, "satisfied"),
        # no coupling at all; case ii would leave a zero V with nothing to fit
        ([[1, 0], [0, 1]], "i", 1.0, False, "satisfied"),
        ([[1, -2], [-2, 1]], "ii", -1.0, False, "violated")],
        ids=["reference", "small-couplings", "decoupled", "not-row-dominant"])
    def test_verdicts(self, couplings, ic_case, margin, assumption_ok, stability):
        rep = run(RunConfig.from_dict({**SMALL, "couplings": couplings, "ic_case": ic_case}))
        assert rep.stability_margin == margin and rep.assumption_ok is assumption_ok
        lines = rep.to_text().splitlines()
        verdicts = ["stability condition: " + stability,
                    "decay assumption (spectral gap vs couplings): "
                    + ("satisfied" if assumption_ok else "not satisfied")]
        if not assumption_ok:
            verdicts.append("note: experiment exceeds the sufficient decay assumption (as the "
                            "reference experiments do); rates are observed, not guaranteed")
        assert lines[-1 - len(verdicts):-1] == verdicts
        assert lines[-1].startswith("wall time: ")

    def test_zero_initial_data_rejected_clearly(self):
        with pytest.raises(ConfigError, match="ic_scale must be finite and positive, got 0.0"):
            RunConfig.from_dict({**SMALL, "ic_scale": 0.0})

    def test_unstable_semi_implicit_run_refused(self, tmp_path, capsys):
        """dt = 10 on I = 16: the lagged coupling makes the semi-implicit
        norms grow to ~1e34 while the couplings are row-dominant."""
        raw = {"orders": [0.9, 0.5], "ic_case": "i", "n_space": 16,
               "n_time": 200, "T": 2000.0}
        # refused at the first kept level past 10 times the start, step 20 of 200
        with pytest.raises(NumericalError,
                           match=r"summed norm \S+ at t = 200, .* unstable at dt = 10$"):
            run(RunConfig.from_dict(raw))
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(raw))
        assert main(["pde", "--config", str(path)]) == 2
        assert "at t = 200," in capsys.readouterr().err
        bounded = run(RunConfig.from_dict({**raw, "scheme": "fully-implicit"}))
        assert bounded.total_fit.exponent < 0.0

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_norms_are_the_strided_history_norms(self, scheme):
        # the stride does not divide n_time, so the last level is not kept
        cfg = RunConfig.from_dict({**SMALL, "scheme": scheme, "n_time": 251, "stride": 7})
        buf = io.StringIO()
        run(cfg, csv_sink=buf)
        table = np.genfromtxt(io.StringIO(buf.getvalue()), delimiter=",", names=True)
        hist = subdecay.simulate(cfg.system_spec(), cfg.grid(), scheme)
        norms = subdecay.l2_norm(hist.values[::7], cfg.grid().dx)
        assert np.array_equal(table["t"], cfg.grid().times[::7])
        assert np.array_equal(np.column_stack([table["norm_1"], table["norm_2"]]), norms)

    def test_memory_does_not_grow_with_the_horizon(self):
        # every level kept would be (N+1) K (I+1) floats: 33 MB at N = 16,000
        peaks = []
        for n_time in (1000, 16000):
            cfg = RunConfig.from_dict({**SMALL, "n_time": n_time, "n_space": 128, "stride": 10})
            tracemalloc.start()
            try:
                run(cfg, csv_sink=io.StringIO())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2e6

    def test_csv_pointwise_nan_below_one(self):
        cfg = RunConfig.from_dict({**SMALL, "stride": 10})
        buf = io.StringIO()
        run(cfg, csv_sink=buf)
        first_data = buf.getvalue().splitlines()[1].split(",")
        assert first_data[0] == "0"
        assert first_data[3] == "nan"


class TestConjecturedRate:
    def test_sublinear_lowest_live_order(self):
        assert conjectured_rate((0.9, 0.5, 0.3), (True, True, True)) == -0.3
        assert conjectured_rate((0.9, 0.5, 0.3), (True, True, False)) == -0.5
        assert conjectured_rate((0.9, 0.5, 0.3), (True, False, False)) == -0.9

    def test_superlinear_when_live_order_is_one(self):
        assert conjectured_rate((1.0, 1.0, 0.3), (True, True, False)) == -1.3
        assert conjectured_rate((1.0, 0.5, 0.3), (True, False, False)) == -1.3

    def test_table_targets(self):
        # third component zero in case ii, second and third in case iii
        assert [t for _, t in table_configs("ii")] == [-0.5, -0.5, -0.7, -1.3, -1.5, -1.7]
        assert [t for _, t in table_configs("iii")] == [-1.3, -1.5, -1.5, -1.3, -1.5, -1.7]


class TestCommandLine:
    def test_mlf_value(self, capsys):
        assert main(["mlf", "--eta", "1.0", "--mu", "1.0", "--z", "-1.0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_mlf_validation_exit_code(self, capsys):
        assert main(["mlf", "--eta", "0.01", "--mu", "1.0", "--z", "-1.0"]) == 1

    def test_ode_laplace_csv(self, capsys):
        rc = main(["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2",
                   "--c2", "1", "--t-max", "100", "--method", "laplace",
                   "--n-steps", "10"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,U,V"
        assert len(lines) == 11
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 1.0 and first[1] > 0.0 and first[2] > 0.0

    def test_ode_laplace_with_underflowing_gap_is_silent(self, capsys):
        # c1^2 - c2^2 underflows to 0: no warning reaches stderr
        assert main(["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2e-200",
                     "--c2", "1e-200", "--t-max", "10", "--method", "laplace"]) == 0
        assert capsys.readouterr().err == ""

    def test_ode_picard_runs(self, capsys):
        rc = main(["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2",
                   "--c2", "1", "--t-max", "5", "--method", "picard",
                   "--n-steps", "64"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 66  # header + 65 grid points

    def test_ode_picard_reports_map_residual(self, capsys):
        argv = ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
                "--t-max", "20", "--method", "picard", "--n-steps", "64"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        residual = re.fullmatch(r"map residual (\d\.\d{3}e[-+]\d\d)\n", captured.err)
        assert residual and float(residual.group(1)) <= 1e-12
        assert len(captured.out.strip().splitlines()) == 66

    def test_ode_failed_certificate_exit_two(self, monkeypatch, tmp_path, capsys):
        # a reciprocal off by 1e-3 leaves a map residual of about 1e-6 after
        # the refinement step, far above the bound
        exact = subdecay.frac_ode._reciprocal
        monkeypatch.setattr(subdecay.frac_ode, "_reciprocal",
                            lambda D, m: exact(D, m) * (1.0 + 1e-3))
        out = tmp_path / "path.csv"
        argv = ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
                "--t-max", "20", "--method", "picard", "--n-steps", "64"]
        assert main(argv + ["--output", str(out), "--fit-window", "5", "20"]) == 2
        captured = capsys.readouterr()
        assert re.search(r"numerical failure: map residual \d\.\d{3}e-\d\d at solution scale "
                         r"1\.000e\+00: needs a finite scale and a residual <= 1e-12 of it",
                         captured.err)
        assert "slope" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("method", ["picard", "laplace"])
    def test_ode_non_finite_horizon_exit_one(self, method, capsys):
        argv = ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
                "--t-max", "inf", "--method", method, "--n-steps", "64"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "horizon --t-max must be finite and positive, got inf" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("method, n_steps", [("laplace", "-3"), ("laplace", "0"),
                                                 ("picard", "-3"), ("picard", "8")])
    def test_ode_step_count_below_one_exit_one(self, method, n_steps, capsys):
        # a count below 1, or below picard_solve's floor of 16
        argv = ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
                "--t-max", "20", "--method", method, "--n-steps", n_steps]
        assert main(argv) == 1
        captured = capsys.readouterr()
        floor = 16 if method == "picard" else 1
        assert (f"error: --n-steps must be at least {floor} for --method {method}, "
                f"got {n_steps}") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("method, n_steps, window, refusal", [
        ("laplace", "30", ["50", "10"], "window must satisfy 1 <= lo < hi, got (50.0, 10.0)"),
        ("picard", "64", ["200", "300"], "only 0 samples inside window (200.0, 300.0)")],
        ids=["laplace", "picard"])
    def test_ode_fit_window_refused_before_the_solve(self, method, n_steps, window, refusal,
                                                     tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
                "--t-max", "100", "--method", method, "--n-steps", n_steps,
                "--fit-window", *window, "--output", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert refusal in captured.err and "map residual" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flags, refusal", [
        (["--alpha", "1", "--beta", "1", "--c1", "2", "--c2", "1"], "no cut"),
        (["--alpha", "0.9", "--beta", "0.5", "--c1", "1", "--c2", "2"],
         "need finite c1 > c2 > 0")])
    def test_ode_picard_solves_what_laplace_refuses(self, flags, refusal, capsys):
        # the Laplace route's symbol checks bind the laplace method only
        argv = ["ode", *flags, "--t-max", "10", "--n-steps", "64"]
        assert main(argv + ["--method", "picard"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("map residual ")
        assert len(captured.out.strip().splitlines()) == 66
        assert main(argv + ["--method", "laplace"]) == 1
        captured = capsys.readouterr()
        assert refusal in captured.err and captured.out == ""

    @pytest.mark.parametrize("t_max", ["inf", "nan", "0", "5"])
    def test_oracle_unusable_horizon_exit_one(self, t_max, capsys):
        argv = ["oracle", "--beta", "0.5", "--t-max", t_max, "--n-modes", "4",
                "--n-points", "6"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: horizon --t-max must be finite and at least 10" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n_points", ["-1", "0"])
    def test_oracle_point_count_below_one_exit_one(self, n_points, capsys):
        argv = ["oracle", "--beta", "0.5", "--t-max", "100", "--n-modes", "4",
                "--n-points", n_points]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"error: --n-points must be at least 1, got {n_points}" in captured.err
        assert captured.out == ""

    def test_pde_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        assert main(["pde", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "component 1" in out and "stability condition: satisfied" in out

    def test_pde_growing_fit_not_an_exponent(self, tmp_path, capsys):
        # a coupling margin of -2 passes run's check, and the norms grow
        path = tmp_path / "grow.json"
        path.write_text(json.dumps({"orders": [0.9, 0.5], "ic_case": "ii",
                                    "couplings": [[1, -3], [-3, 1]],
                                    "n_space": 16, "n_time": 200, "T": 20}))
        assert main(["pde", "--config", str(path)]) == 0
        fits = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("component", "summed norms"))]
        assert len(fits) == 3
        for line in fits:
            assert re.search(r": growing, slope \+\d", line) and "exponent" not in line

    def test_pde_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL, "extra": True}))
        assert main(["pde", "--config", str(path)]) == 1

    @pytest.mark.parametrize("command, text", [
        ("pde", None), ("pde", "{bad"), ("pde", "5"), ("pde", "null"), ("pde", "[1, 2]"),
        ("decay", None), ("decay", "t,value\n1,2\n3\n"), ("decay", "t,value\n"),
        ("decay", "t,value\n2,1\n"), ("decay", "t\n1\n2\n")],
        ids=["pde-missing", "pde-not-json", "pde-int", "pde-null", "pde-list",
             "decay-missing", "decay-ragged", "decay-no-rows", "decay-one-row",
             "decay-no-norm-column"])
    def test_unreadable_input_exit_one(self, command, text, tmp_path, capsys):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        assert main([command, "--config", str(path)] if command == "pde"
                    else [command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_decay_of_a_pde_csv_repeats_the_report(self, tmp_path, capsys):
        # 801 samples in the window: both commands fit the same 60 of them
        csv, cfg = tmp_path / "run.csv", tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "n_time": 1000, "n_space": 16, "stride": 1,
                                   "output": str(csv)}))
        assert main(["pde", "--config", str(cfg)]) == 0
        reported = re.findall(r"component \d: exponent (\S+)", capsys.readouterr().out)
        assert main(["decay", str(csv), "--window", "10", "50"]) == 0
        fitted = re.findall(r"norm_\d: exponent (\S+)", capsys.readouterr().out)
        assert len(reported) == 2 and fitted == [f"{float(e):+.6f}" for e in reported]

    def test_pde_stride_beyond_n_time_exit_one(self, tmp_path, capsys):
        # a stride past n_time keeps only t = 0, and leaves nothing to fit
        raw = {"orders": [0.9, 0.5], "ic_case": "ii", "n_time": 40, "n_space": 8, "T": 50,
               "stride": 50}
        with pytest.raises(ConfigError, match="stride must be at most n_time"):
            RunConfig.from_dict(raw)
        path = tmp_path / "stride.json"
        path.write_text(json.dumps(raw))
        assert main(["pde", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "stride" in err and "Traceback" not in err

    def test_pde_numerical_failure_exit_two(self, tmp_path, capsys):
        # a positive scale whose norms all underflow to zero
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({**SMALL, "ic_scale": 1e-320}))
        assert main(["pde", "--config", str(path)]) == 2
        assert "numerical failure: zero norm series" in capsys.readouterr().err

    def test_oracle_csv(self, capsys):
        rc = main(["oracle", "--beta", "0.5", "--t-max", "1000",
                   "--n-modes", "4", "--n-points", "6"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,v_norm_exact,v_norm_asymptotic,ratio"
        last = [float(x) for x in lines[-1].split(",")]
        assert last[3] == pytest.approx(1.0, abs=0.02)

    def test_oracle_far_horizon(self, capsys):
        # |v| falls to 3.5e-301 at t = 1e200, whose square underflows; at
        # t = 10 the expansion is still 10 % off
        argv = ["oracle", "--beta", "0.5", "--t-max", "1e200", "--n-points", "3"]
        assert main(argv) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == pytest.approx([10.0, 10.0 ** 100.5, 1e200])
        assert rows[0][3] == pytest.approx(1.096, abs=1e-3)
        assert [row[3] for row in rows[1:]] == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_oracle_underflowing_horizon_exit_two(self, capsys):
        argv = ["oracle", "--beta", "0.5", "--t-max", "1e300", "--n-points", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert ("numerical failure: Bromwich sum of mode lam=1 at t=1e+300 underflows float64"
                in captured.err)
        assert captured.out == ""

    def test_decay_subcommand(self, tmp_path, capsys):
        t = np.logspace(0.5, 3, 60)
        path = tmp_path / "series.csv"
        with open(path, "w") as fh:
            fh.write("t,value\n")
            for tv, vv in zip(t, 2.0 * t ** -1.5):
                fh.write(f"{float(tv):.17g},{float(vv):.17g}\n")
        assert main(["decay", str(path), "--window", "10", "1000"]) == 0
        out = capsys.readouterr().out
        assert "exponent -1.5" in out

    def test_decay_growing_series_not_an_exponent(self, tmp_path, capsys):
        t = np.logspace(0.5, 3, 60)
        path = tmp_path / "series.csv"
        path.write_text("t,value\n" + "".join(f"{float(tv):.17g},{float(vv):.17g}\n"
                                               for tv, vv in zip(t, 3.0 * t ** 0.5)))
        assert main(["decay", str(path), "--window", "10", "1000"]) == 0
        fit_line = capsys.readouterr().out.splitlines()[0]
        assert fit_line.startswith("value: growing, slope +0.500000 ")
        assert "exponent" not in fit_line

    def test_ode_fit_of_growing_path_not_an_exponent(self, capsys):
        # c2 > c1 makes U + V grow; only the Picard route takes such a pair
        assert main(["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "1", "--c2", "2",
                     "--t-max", "20", "--n-steps", "64", "--fit-window", "5", "20"]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"map residual \d\.\d{3}e-\d\d\ngrowth of U\+V on \[5, 20\]: "
                            r"\+\d+\.\d{4} \(rms .*\)\n", err)
        assert "exponent" not in err and "slope" not in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_decay_non_finite_norm_exit_one(self, tmp_path, capsys, bad):
        t = np.logspace(0.5, 3, 60)
        values = [f"{float(v):.17g}" for v in 2.0 * t ** -1.5]
        values[50] = bad  # t = 416, inside the window
        path = tmp_path / "series.csv"
        path.write_text("t,value\n" + "".join(f"{float(tv):.17g},{v}\n"
                                               for tv, v in zip(t, values)))
        assert main(["decay", str(path), "--window", "10", "1000"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "exponent" not in captured.out

    @pytest.mark.parametrize("bad", ["", "nan"])
    def test_decay_missing_time_exit_one(self, tmp_path, capsys, bad):
        # a blank or nan t cell inside the fit window is refused, not a row
        # the fit silently drops
        t = [f"{float(tv):.17g}" for tv in np.logspace(0.5, 3, 50)]
        values = [f"{float(v):.17g}" for v in np.logspace(0.5, 3, 50) ** -0.9]
        t[30] = bad
        path = tmp_path / "series.csv"
        path.write_text("t,value\n" + "".join(f"{tv},{v}\n" for tv, v in zip(t, values)))
        assert main(["decay", str(path), "--window", "10", "1000"]) == 1
        captured = capsys.readouterr()
        assert "times must be finite" in captured.err and "exponent" not in captured.out

    def test_report_prints_each_row_as_it_is_made(self, monkeypatch, capsys):
        fit = types.SimpleNamespace(total_fit=types.SimpleNamespace(exponent=-0.5))
        monkeypatch.setattr(cli, "run", lambda cfg: fit)
        assert main(["report", "--tables"]) == 1  # -0.5 misses most targets
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16 and lines[0].startswith("table (")
        assert sum(line.lstrip().startswith("alpha") for line in lines) == 2

        calls = []

        def fail_second(cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise NumericalError("norms diverged")
            return fit

        monkeypatch.setattr(cli, "run", fail_second)
        assert main(["report", "--tables"]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines[:3]
        assert "numerical failure: norms diverged" in captured.err

    @pytest.mark.parametrize("rows_missed", [0, 1])
    def test_report_tables_returns_whether_every_row_passed(self, rows_missed, monkeypatch,
                                                            capsys):
        targets = dict(table_configs("ii") + table_configs("iii"))
        calls = []

        def on_target(cfg):  # the last row misses its target by 0.08
            calls.append(cfg)
            miss = 0.08 if rows_missed and len(calls) == 12 else 0.0
            exponent = targets[cfg] + miss
            return types.SimpleNamespace(total_fit=types.SimpleNamespace(exponent=exponent))

        monkeypatch.setattr(cli, "run", on_target)
        assert cli.report_tables() is (rows_missed == 0)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert sum(line.endswith("FAIL") for line in lines) == rows_missed
        assert sum(line.endswith("pass") for line in lines) == 12 - rows_missed

    @pytest.mark.parametrize("argv", [
        ["pde"],
        ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1", "--t-max", "5",
         "--n-steps", "64"],
        ["oracle", "--beta", "0.5", "--t-max", "100", "--n-modes", "4", "--n-points", "6"]],
        ids=lambda argv: argv[0])
    def test_output_in_missing_directory_exit_one(self, argv, tmp_path, capsys):
        # refused before the work: no map residual, no run
        out = tmp_path / "missing" / "out.csv"
        if argv == ["pde"]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**SMALL, "output": str(out)}))
            argv = ["pde", "--config", str(cfg)]
        else:
            argv = argv + ["--output", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: output directory {out.parent} does not exist\n"
        assert captured.out == "" and not out.parent.exists()

    def test_output_naming_a_directory_refused_before_the_run(self, tmp_path, monkeypatch,
                                                              capsys):
        def no_levels(*args):
            raise AssertionError("a level was made")

        monkeypatch.setattr("subdecay.subdiff_fd.levels", no_levels)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "output": str(tmp_path)}))
        assert main(["pde", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {tmp_path}: is a directory\n"
        assert captured.out == ""

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        # a directory in the file's place passes the directory check and fails the write
        argv = ["oracle", "--beta", "0.5", "--t-max", "100", "--n-modes", "4",
                "--n-points", "6", "--output", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_parser_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestImportHygiene:
    SRC = os.path.dirname(os.path.dirname(os.path.abspath(subdecay.__file__)))

    def test_cold_import_loads_no_heavy_modules(self):
        # scipy costs about half a second of cold start and only the PDE
        # solver needs it; mpmath belongs to the test oracles, not the library
        code = ("import sys, subdecay, subdecay.cli; print(' '.join(m for m in "
                "('scipy', 'mpmath') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": self.SRC}).stdout
        assert out.strip() == ""

    @pytest.mark.parametrize("argv", [
        ["mlf", "--eta", "0.5", "--mu", "1.0", "--z", "-3.0"],
        ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
         "--t-max", "5", "--method", "picard", "--n-steps", "64"],
        ["oracle", "--beta", "0.5", "--t-max", "100", "--n-modes", "4", "--n-points", "6"],
        ["decay", "{csv}", "--window", "10", "1000"]], ids=lambda argv: argv[0])
    def test_commands_load_no_scipy(self, argv, tmp_path):
        # only `pde` and `report` step the PDE, whose banded solves need
        # scipy's BLAS and LAPACK
        csv = tmp_path / "series.csv"
        t = np.logspace(0.5, 3, 60)
        csv.write_text("t,value\n" + "".join(f"{tv!r},{vv!r}\n"
                                             for tv, vv in zip(t.tolist(), (2.0 * t ** -1.5).tolist())))
        code = ("import sys; from subdecay.cli import main; rc = main(sys.argv[1:]); "
                "print(rc, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, *(a.format(csv=csv) for a in argv)],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": self.SRC}).stdout
        assert out.splitlines()[-1] == "0 False"
