import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({**SMALL, "typo_key": 1})
        with pytest.raises(ConfigError, match=r"unknown config keys: \['mode'\]"):
            RunConfig.from_dict({**SMALL, "mode": "pde"})

    @pytest.mark.parametrize("field, value", [
        ("orders", "0.9"), ("ic_case", 2), ("scheme", 1), ("diffusivities", 1.0),
        ("couplings", "C2"), ("ic_scale", "1"), ("L", [3.0]), ("T", "50"),
        ("n_time", 250.0), ("n_space", "24"), ("window", 10.0), ("stride", 1.5),
        ("output", 3)])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"key '{field}' has wrong type"):
            RunConfig.from_dict({**SMALL, field: value})

    def test_null_means_default_only_where_documented(self):
        for key in ("diffusivities", "couplings", "window", "output"):
            base = {k: v for k, v in SMALL.items() if k != key}
            assert RunConfig.from_dict({**base, key: None}) == RunConfig.from_dict(base)
        for key in ("T", "scheme", "n_time", "ic_case"):
            with pytest.raises(ConfigError, match=f"key '{key}' has wrong type NoneType"):
                RunConfig.from_dict({**SMALL, key: None})

    @pytest.mark.parametrize("field, value", [
        ("orders", [0.9, None]), ("couplings", [1.0, -1.0]), ("window", [10.0])])
    def test_malformed_entries_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**SMALL, field: value})

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
        ("T", math.inf), ("L", math.nan), ("ic_scale", math.inf),
        ("diffusivities", [1.0, math.inf]), ("couplings", [[1.0, -1.0], [-1.0, math.nan]]),
        ("window", [10.0, math.inf])])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            RunConfig.from_dict({**SMALL, field: value})

    def test_history_beyond_physical_memory_refused(self, monkeypatch):
        """n_time = 10**9 plans a 2 TB history: refused, naming the size,
        before anything is allocated."""
        assert 0.0 < cli._MEMORY_GB < math.inf
        monkeypatch.setattr(cli, "_MEMORY_GB", 16.0)
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**SMALL, "n_time": 10**9, "n_space": 128})
        assert err.value.problems == [
            "n_time and n_space need a 2.06e+03 GB history, more than the "
            "16 GB of physical memory"]
        RunConfig.from_dict({**SMALL, "n_time": 10**6, "n_space": 128})  # 2.06 GB

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
        assert cfg.L == pytest.approx(math.pi)


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
        assert rep1.stability_ok and rep1.stability_marginal
        assert not rep1.assumption_ok  # reference setup exceeds the condition
        assert "exponent" in rep1.to_text()

    def test_zero_initial_data_rejected_clearly(self):
        cfg = RunConfig.from_dict({**SMALL, "ic_scale": 0.0})
        with pytest.raises(NumericalError, match="zero norm series"):
            run(cfg)

    def test_unstable_semi_implicit_run_refused(self, tmp_path):
        """dt = 10 on I = 16: the lagged coupling makes the semi-implicit
        norms grow to ~1e34 while the couplings are row-dominant."""
        raw = {"orders": [0.9, 0.5], "ic_case": "i", "n_space": 16,
               "n_time": 200, "T": 2000.0}
        with pytest.raises(NumericalError, match="unstable at dt = 10"):
            run(RunConfig.from_dict(raw))
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(raw))
        assert main(["pde", "--config", str(path)]) == 2
        bounded = run(RunConfig.from_dict({**raw, "scheme": "fully-implicit"}))
        assert bounded.total_fit.exponent < 0.0

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
        t1 = [conjectured_rate(c.orders, (True, True, False))
              for c in table_configs("ii")]
        assert t1 == [-0.5, -0.5, -0.7, -1.3, -1.5, -1.7]
        t2 = [conjectured_rate(c.orders, (True, False, False))
              for c in table_configs("iii")]
        assert t2 == [-1.3, -1.5, -1.5, -1.3, -1.5, -1.7]


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

    def test_ode_picard_runs(self, capsys):
        rc = main(["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2",
                   "--c2", "1", "--t-max", "5", "--method", "picard",
                   "--n-steps", "64"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 66  # header + 65 grid points

    def test_ode_unconverged_picard_refuses_fit(self, monkeypatch, capsys):
        monkeypatch.setattr(subdecay.frac_ode, "_MAX_SWEEPS", 3)
        argv = ["ode", "--alpha", "0.9", "--beta", "0.5", "--c1", "2", "--c2", "1",
                "--t-max", "20", "--method", "picard", "--n-steps", "64"]
        assert main(argv + ["--fit-window", "5", "20"]) == 2
        captured = capsys.readouterr()
        assert re.search(r"numerical failure: picard iteration did not converge: "
                         r"3 sweeps, last increment \d\.\d{3}e[-+]\d\d", captured.err)
        assert "slope" not in captured.err and captured.out == ""
        # without a fit the path is still written, under a warning naming the stop
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "warning: picard iteration did not converge: 3 sweeps" in captured.err
        assert len(captured.out.strip().splitlines()) == 66

    def test_pde_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        assert main(["pde", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "component 1" in out and "stability condition: satisfied" in out

    def test_pde_bad_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL, "extra": True}))
        assert main(["pde", "--config", str(path)]) == 1

    def test_pde_numerical_failure_exit_two(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({**SMALL, "ic_scale": 0.0}))
        assert main(["pde", "--config", str(path)]) == 2

    def test_oracle_csv(self, capsys):
        rc = main(["oracle", "--beta", "0.5", "--t-max", "1000",
                   "--n-modes", "4", "--n-points", "6"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,v_norm_exact,v_norm_asymptotic,ratio"
        last = [float(x) for x in lines[-1].split(",")]
        assert last[3] == pytest.approx(1.0, abs=0.02)

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

    def test_report_progress_prints_the_same_text(self, monkeypatch, capsys):
        fit = types.SimpleNamespace(total_fit=types.SimpleNamespace(exponent=-0.5))
        monkeypatch.setattr(cli, "run", lambda cfg: fit)
        printed = []
        for extra in ([], ["--progress"]):
            rc = main(["report", "--tables", *extra])
            printed.append((rc, capsys.readouterr().out))
        assert printed[0] == printed[1]
        lines = printed[0][1].splitlines()
        assert len(lines) == 16 and lines[0].startswith("table (")
        assert sum(line.lstrip().startswith("alpha") for line in lines) == 2

    def test_parser_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestImportHygiene:
    def test_cold_import_loads_no_heavy_modules(self):
        # scipy.signal and scipy.integrate cost about a second of cold start,
        # and mpmath belongs to the test oracles, not the library
        src = os.path.dirname(os.path.dirname(os.path.abspath(subdecay.__file__)))
        code = ("import sys, subdecay, subdecay.cli; print(' '.join(m for m in "
                "('scipy.signal', 'scipy.integrate', 'mpmath') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == ""
