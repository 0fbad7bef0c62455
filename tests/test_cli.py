import io
import json
import math

import numpy as np
import pytest

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

    def test_round_trip_is_fixed_point(self):
        cfg = RunConfig.from_dict(dict(SMALL))
        once = cfg.to_dict()
        again = RunConfig.from_dict(once).to_dict()
        assert once == again

    def test_unknown_case_for_k(self):
        with pytest.raises(ConfigError, match="ic_case"):
            RunConfig.from_dict({**SMALL, "ic_case": "iii"}).system_spec()

    @pytest.mark.parametrize("field, value", [
        ("T", math.inf), ("L", math.nan), ("ic_scale", math.inf),
        ("diffusivities", [1.0, math.inf]), ("couplings", [[1.0, -1.0], [-1.0, math.nan]]),
        ("window", [10.0, math.inf])])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            RunConfig.from_dict({**SMALL, field: value})

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

    def test_parser_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
