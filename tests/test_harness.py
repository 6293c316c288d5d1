"""Harness: config parsing/validation, experiment runs, CSV round-trip,
determinism, CLI subcommands and exit codes."""

import json

import numpy as np
import pytest

from ergonil.cli import main as cli_main
from ergonil.errors import ConfigError
from ergonil.harness import (
    CSV_HEADER,
    Row,
    config_from_dict,
    list_experiments,
    load_config,
    parse_row,
    run_experiment,
)

PHI = (np.sqrt(5.0) - 1.0) / 2.0


def ww_config(**over):
    doc = {
        "experiment": "ww_avg",
        "id": "rotation_ww",
        "system": {"kind": "rotation_torus", "alpha": [PHI]},
        "observable": {"terms": [[[1], [1.0, 0.0]]]},
        "x0": [[0.2]],
        "t": 0.37,
        "schedule": [256, 512, 1024],
    }
    doc.update(over)
    return doc


class TestConfigParsing:
    def test_minimal_config_gets_default_schedule(self):
        doc = ww_config()
        del doc["schedule"]
        cfg = config_from_dict(doc)
        assert cfg.schedule == tuple(1 << k for k in range(10, 17))

    def test_equal_exponents_rejected(self):
        doc = {
            "experiment": "double_avg",
            "system": {"kind": "rotation_torus", "alpha": [PHI]},
            "observable1": {"terms": [[[1], 1.0]]},
            "observable2": {"terms": [[[1], 1.0]]},
            "x0": [[0.1]],
            "a": 2,
            "b": 2,
        }
        with pytest.raises(ConfigError, match="distinct"):
            config_from_dict(doc)

    def test_oversized_lattice_modulus_is_config_error(self):
        doc = {
            "experiment": "birkhoff_avg",
            "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]],
                       "modulus": (1 << 53) + 5},
            "observable": {"terms": [[[1, 0], 1.0]]},
            "x0": [[1, 0]],
        }
        with pytest.raises(ConfigError, match="system.*2\\^53"):
            config_from_dict(doc)

    def test_fraction_string_declares_rational(self):
        cfg = config_from_dict(ww_config(system={"kind": "rotation_torus", "alpha": ["1/3"]}))
        assert cfg.system.is_rational() == (True,)

    def test_decimal_literal_stays_irrational(self):
        cfg = config_from_dict(ww_config())
        assert cfg.system.is_rational() == (False,)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="list-experiments"):
            config_from_dict({"experiment": "nope"})

    def test_missing_required_field_named(self):
        doc = ww_config()
        del doc["t"]
        with pytest.raises(ConfigError, match="t"):
            config_from_dict(doc)

    @pytest.mark.parametrize("rid", ["../escaped", "a/b", "a\\b", ".", "..", "", 7])
    def test_id_must_be_a_plain_file_name(self, rid, tmp_path):
        with pytest.raises(ConfigError) as err:
            config_from_dict(ww_config(id=rid))
        assert err.value.field == "id"
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config(id=rid)))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert sorted(x.name for x in tmp_path.iterdir()) == ["c.json"]

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"experiment": "ww_avg",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_index_base_defaults(self):
        assert config_from_dict(ww_config()).index_base == 1
        doc = {"experiment": "cesaro_nilseq",
               "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.5]}}
        assert config_from_dict(doc).index_base == 0

    def test_list_experiments_contents(self):
        names = list_experiments()
        assert "wwdr_avg" in names and "vdc_bound" in names and "product_formula_check" in names
        assert names == sorted(names)

    def test_weight_specs(self, tmp_path):
        table = tmp_path / "w.csv"
        table.write_text("n,re,im\n0,1,0\n1,0,1\n")
        doc = {
            "experiment": "cesaro_nilseq",
            "schedule": [1, 2],
            "weight": {
                "kind": "product",
                "left": {"kind": "scaled", "scale": [0.5, 0.0],
                         "inner": {"kind": "table", "path": "w.csv", "sup_error_budget": 0.25}},
                "right": {"kind": "heisenberg_nilseq", "g": [PHI, 0.3, 0.1],
                          "invariant": {"kind": "torus_char", "m": 1, "k": 0}},
            },
        }
        cfg = config_from_dict(doc, base_dir=tmp_path)
        assert cfg.weight.bound == pytest.approx(0.5)
        assert cfg.weight.error_budget == pytest.approx(0.125)


class TestRowRoundTrip:
    def test_format_parse_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            row = Row(
                "exp/x0",
                N=int(rng.integers(1, 1 << 20)),
                re=float(rng.normal() * 10.0 ** float(rng.integers(-12, 12))),
                im=float(rng.normal()),
                abs=abs(float(rng.normal())),
                sup=None,
                t_star=None,
                seminorm=float(rng.random()),
                clamped=bool(rng.integers(0, 2)),
            )
            assert parse_row(row.format()) == row

    def test_empty_fields_stay_empty(self):
        row = Row("e", N=4)
        text = row.format()
        assert text == "e,4,,,,,,,"
        assert parse_row(text) == row


class TestRunExperiment:
    def test_ww_run_writes_files(self, tmp_path):
        cfg = config_from_dict(ww_config(assertions=[
            {"check": "abs_below", "N": 1024, "value": 1.5},
        ]))
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert rep.all_passed
        assert rep.csv_path.exists() and rep.summary_path.exists()
        lines = rep.csv_path.read_text().strip().split("\n")
        assert lines[0] == "experiment_id,N,re,im,abs,sup,t_star,seminorm,clamped"
        assert len(lines) == 4
        summary = json.loads(rep.summary_path.read_text())
        assert summary["all_passed"] is True
        assert summary["config"] == cfg.raw

    def test_zero_observable_rows_exact_zero(self, tmp_path):
        cfg = config_from_dict(ww_config(observable={"terms": [[[1], 0.0]]}))
        rep = run_experiment(cfg, out_dir=tmp_path)
        for row in rep.rows:
            assert row.re == 0.0 and row.im == 0.0 and row.abs == 0.0

    def test_determinism_across_runs_and_workers(self, tmp_path):
        doc = ww_config(x0=[[0.2], [0.5], [0.8]], id="det")
        outs = []
        for i, workers in enumerate((1, 4, 1)):
            cfg = config_from_dict(doc)
            rep = run_experiment(cfg, out_dir=tmp_path / str(i), workers=workers)
            outs.append(rep.csv_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_peaked_sweep_determinism_across_workers(self, tmp_path):
        # eigenfunction sweeps refine around the resonance; rows must not move
        doc = {
            "experiment": "ww_sup", "id": "det_peak",
            "system": {"kind": "rotation_torus", "alpha": [PHI]},
            "observable": {"terms": [[[1], [1.0, 0.0]]]},
            "x0": [[0.2], [0.5], [0.8]], "eps": 0.01,
            "schedule": [1024, 4096],
        }
        outs = []
        for i, workers in enumerate((1, 2, 1)):
            rep = run_experiment(config_from_dict(doc), out_dir=tmp_path / str(i),
                                 workers=workers)
            outs.append(rep.csv_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert all(r.sup >= 0.99 for r in rep.rows)

    def test_dual_system_rows_ignore_grid_and_workers(self, tmp_path):
        # the norm is exact by Parseval, so a "grid_size" key changes nothing
        doc = {
            "experiment": "dual_system_avg", "id": "dual",
            "system": {"kind": "rotation_torus", "alpha": [PHI]},
            "observable1": {"terms": [[[1], [1.0, 0.0]]]},
            "observable2": {"terms": [[[1], [0.7, 0.0]], [[2], [0.3, 0.2]]]},
            "x0": [[0.2], [0.7]], "a": 1, "b": 2,
            "system_s": {"kind": "rotation_torus", "alpha": [0.3]},
            "g_list": [{"terms": [[[1], [1.0, 0.0]]]},
                       {"terms": [[[-1], [0.5, 0.0]], [[40], [0.5, 0.1]]]}],
            "schedule": [1024, 2048],
        }
        outs = []
        for i, (grid, workers) in enumerate([(None, 1), (None, 2), (64, 1), (128, 2)]):
            if grid is not None:
                doc["grid_size"] = grid
            rep = run_experiment(config_from_dict(doc), out_dir=tmp_path / str(i),
                                 workers=workers)
            outs.append(rep.csv_path.read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3]
        assert len(rep.rows) == 4 and all(0.0 < r.abs < 1.0 for r in rep.rows)

    def test_summary_carries_sup_certificates(self, tmp_path):
        doc = {
            "experiment": "ww_sup", "id": "cert",
            "system": {"kind": "rotation_torus", "alpha": [PHI]},
            "observable": {"terms": [[[1], [1.0, 0.0]]]},
            "x0": [[0.2], [0.5]], "eps": 0.01, "schedule": [512, 1024],
        }
        rep = run_experiment(config_from_dict(doc), out_dir=tmp_path)
        diag = json.loads(rep.summary_path.read_text())["diagnostics"]
        assert [d["id"] for d in diag] == ["cert/x0", "cert/x1"]
        for d in diag:
            assert d["error_budget"] == 0.0
            assert [p["N"] for p in d["sup"]] == [512, 1024]
            for p in d["sup"]:
                assert p["grid_size"] >= 16 * p["N"]
                assert 0.0 < p["grid_spacing"] <= 1.0 / (16 * p["N"])
                assert 0.0 <= p["error_bound"] <= 0.005
        # certificates stay out of the data rows
        assert rep.csv_path.read_text().splitlines()[0] == CSV_HEADER

    def test_summary_carries_error_budget(self, tmp_path):
        (tmp_path / "w.csv").write_text("n,re,im\n0,1,0\n1,0,1\n")
        doc = {
            "experiment": "cesaro_nilseq", "id": "budget", "schedule": [1, 2],
            "weight": {"kind": "table", "path": "w.csv", "sup_error_budget": 0.25},
        }
        rep = run_experiment(config_from_dict(doc, base_dir=tmp_path), out_dir=tmp_path)
        diag = json.loads(rep.summary_path.read_text())["diagnostics"]
        assert diag == [{"id": "budget", "error_budget": 0.25}]

    def test_failed_assertion_reported(self, tmp_path):
        cfg = config_from_dict(ww_config(assertions=[
            {"check": "abs_below", "N": 1024, "value": 1e-9},
        ]))
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert not rep.all_passed

    def test_vdc_experiment(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "vdc_bound",
            "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.0, PHI]},
            "N": 4096,
            "K": 32,
            "assertions": [{"check": "passed"}],
        })
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert rep.all_passed
        ids = [r.experiment_id for r in rep.rows]
        assert ids == ["vdc_bound:lhs", "vdc_bound:rhs"]

    def test_product_formula_experiment(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "product_formula_check",
            "system": {"kind": "rotation_torus", "alpha": [np.sqrt(2) - 1]},
            "observable1": {"terms": [[[0], 0.3], [[1], 0.7]]},
            "observable2": {"terms": [[[0], 0.5], [[2], 0.5]]},
            "x0": [[0.3183098861837907]],
            "a": 1, "b": 2, "N": 1 << 14, "tol": 0.05,
            "assertions": [{"check": "passed"}],
        })
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert rep.all_passed

    def test_seminorm_experiment_rows(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "local_seminorm",
            "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.0, PHI]},
            "k": 2,
            "schedule": [1024, 4096],
            "assertions": [{"check": "seminorm_below", "N": 4096, "value": 0.5}],
        })
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert rep.all_passed
        assert all(r.seminorm is not None and r.clamped is not None for r in rep.rows)

    def test_summary_carries_seminorm_certificates(self, tmp_path):
        docs = [
            {"experiment": "local_seminorm", "id": "semi_local", "k": 2,
             "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.0, PHI]},
             "schedule": [256, 1024]},
            {"experiment": "ghk_seminorm", "id": "semi_ghk", "k": 2, "H": 8,
             "system": {"kind": "rotation_torus", "alpha": [PHI]},
             "observable": {"terms": [[[1], 1.0]]}, "x0": [[0.2]],
             "schedule": [256, 1024]},
        ]
        for doc, boxes in zip(docs, ([16, 32], [8, 8])):
            rep = run_experiment(config_from_dict(doc), out_dir=tmp_path)
            diag = json.loads(rep.summary_path.read_text())["diagnostics"]
            assert [d["id"] for d in diag] == [doc["id"]]
            certs = diag[0]["seminorm"]
            assert [c["N"] for c in certs] == [256, 1024]
            assert [c["H"] for c in certs] == boxes
            for c, row in zip(certs, rep.rows):
                assert c["clamped"] == row.clamped == (c["pre_root_average"] < 0)
                root = 0.0 if c["clamped"] else c["pre_root_average"] ** 0.25
                assert root == pytest.approx(row.seminorm, rel=1e-12)
            # certificates stay out of the data rows
            assert rep.csv_path.read_text().splitlines()[0] == CSV_HEADER

    def test_cesaro_deltas_assertion(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "cesaro_nilseq",
            "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.0, PHI]},
            "schedule": [1 << k for k in range(10, 17)],
            "assertions": [
                {"check": "abs_below", "N": 65536, "value": 0.02},
                {"check": "deltas_below_first", "from": 4096},
            ],
        })
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert rep.all_passed

    def test_vanishing_experiment_through_harness(self, tmp_path):
        cfg = config_from_dict({
            "experiment": "vanishing_experiment",
            "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]]},
            "observable1": {"terms": [[[1, 0], 1.0]]},
            "observable2": {"terms": [[[1, 0], 1.0]]},
            "x0": [[1, 0]],
            "a": 1, "b": 2, "k": 2,
            "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.37]},
            "schedule": [1024, 4096],
        })
        rep = run_experiment(cfg, out_dir=tmp_path)
        assert all(r.seminorm is not None for r in rep.rows)


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "wwdr_avg" in out

    def test_validate_ok(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config()))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config(t="oops")))
        assert cli_main(["validate", "--config", str(p)]) == 2

    def test_run_writes_and_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config()))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "rotation_ww.csv").exists()

    @pytest.mark.parametrize("over", [
        {"experiment": "poly_wwdr_avg", "observable1": {"terms": [[[1], 1.0]]},
         "observable2": {"terms": [[[1], 1.0]]}, "a": 1, "b": 2, "p": 3},
        {"observable": {"terms": 5}},
        {"assertions": [{"check": "abs_below", "value": 0.5}]},
        {"assertions": ["abs_below"]},
        {"assertions": [{"check": "abs_small", "N": 256, "value": 0.5}]},
        {"schedule": ["x"]},
        {"schedule": [8.7, 16]},
        {"x0": ["a"]},
        {"x0": [[1.5]]},
        {"x0": [[0.2, 0.3]]},
        {"observable": {"terms": [[["z"], 1.0]]}},
        {"weight": {"kind": "table", "path": "missing.csv"}},
    ])
    def test_malformed_config_exits_2(self, over, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config(**over)))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_run_assertion_failure_exit_4(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config(assertions=[
            {"check": "abs_below", "N": 1024, "value": 0.0},
        ])))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 4

    def test_run_numeric_error_exit_3(self, tmp_path):
        # eps far below the documented grid floor triggers the numeric class
        doc = {
            "experiment": "ww_sup",
            "system": {"kind": "rotation_torus", "alpha": [PHI]},
            "observable": {"terms": [[[1], 1.0]]},
            "x0": [[0.2]],
            "eps": 1e-12,
            "schedule": [65536],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3

    def test_run_exponent_past_rotation_domain_exit_3(self, tmp_path, capsys):
        # a * n = 2^53 + 1 at n = 1 is not a float: the rotation's time domain ends at 2^53
        doc = {
            "experiment": "double_avg",
            "system": {"kind": "rotation_torus", "alpha": [PHI]},
            "observable1": {"terms": [[[1], 1.0]]},
            "observable2": {"terms": [[[1], 1.0]]},
            "x0": [[0.2]],
            "a": (1 << 53) + 1,
            "b": 1,
            "schedule": [16],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "limit" in capsys.readouterr().err

    def test_run_non_finite_phase_coefficient_exit_3(self, tmp_path, capsys):
        # an infinite coefficient has no phase; it once gave NaN rows and exit 0
        doc = ww_config(experiment="poly_wwdr_avg", observable1={"terms": [[[1], 1.0]]},
                        observable2={"terms": [[[1], 1.0]]}, a=1, b=2, p=[0.0, float("inf")])
        del doc["observable"], doc["t"]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "finite" in capsys.readouterr().err

    def test_run_skew_past_domain_exit_3(self, tmp_path, capsys):
        # exponent 2^20 at N = 256 asks the skew closed form for times up to 2^28
        doc = {
            "experiment": "double_avg",
            "system": {"kind": "anzai_skew", "alpha": PHI},
            "observable1": {"terms": [[[0, 1], 1.0]]},
            "observable2": {"terms": [[[0, 1], 1.0]]},
            "x0": [[0.2, 0.3]],
            "a": 1,
            "b": 1 << 20,
            "schedule": [256],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "limit" in capsys.readouterr().err
