"""Harness: config parsing/validation, experiment runs, CSV round-trip,
determinism, CLI subcommands and exit codes."""

import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ergonil import (
    ThetaType,
    birkhoff_avg,
    double_avg,
    dual_system_avg,
    harness,
    local_seminorm,
    nil_wwdr_avg,
    poly_wwdr_avg,
    weight_samples,
    ww_avg,
    ww_sup,
    wwdr_avg,
)
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
from ergonil.seminorms import coupled_box_size

import oracles

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


# one config per experiment family, each reading a different set of numeric slots
_PAIR_DOC = {"system": {"kind": "anzai_skew", "alpha": PHI},
             "observable1": {"terms": [[[0, 1], 1.0]]},
             "observable2": {"terms": [[[0, 1], [1.0, 0.0]]]},
             "x0": [[0.2, 0.3]], "a": 1, "b": 2, "schedule": [256]}
_SLOT_DOCS = {
    "ww": ww_config(assertions=[{"check": "abs_below", "N": 256, "value": 2.0}]),
    "sup": ww_config(experiment="ww_sup", eps=0.01),
    "poly": dict(_PAIR_DOC, experiment="poly_wwdr_avg", p=[0.0, PHI]),
    "product": dict(_PAIR_DOC, experiment="product_formula_check", N=256, tol=0.1),
    "nil": dict(_PAIR_DOC, experiment="nil_wwdr_avg", weight={
        "kind": "heisenberg_nilseq", "g": [PHI, 0.3, 0.1], "base": [0.1, 0.2, 0.3],
        "invariant": {"kind": "theta", "ell": 1, "width": 1.0}}),
    # the 2-row table covers the schedule: a config that runs, not only one that validates
    "weights": {"experiment": "cesaro_nilseq", "schedule": [2], "weight": {
        "kind": "product",
        "left": {"kind": "scaled", "scale": 0.5,
                 "inner": {"kind": "table", "path": "w.csv", "sup_error_budget": 0.25}},
        "right": {"kind": "product",
                  "left": {"kind": "polynomial_phase", "coefficients": [0.0, PHI]},
                  "right": {"kind": "torus_nilseq", "alpha": [PHI], "base": [0.1],
                            "observable": {"terms": [[[1], [0.5, 0.5]]]}}}}},
    "cat": {"experiment": "birkhoff_avg", "schedule": [16], "x0": [[3, 5]],
            "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]],
                       "modulus": 101},
            "observable": {"terms": [[[1, 0], 1.0]]}},
}
# (config, path to a number): every place a config holds a number
_NUMERIC_SLOTS = [
    ("ww", ("system", "alpha", 0)), ("ww", ("observable", "terms", 0, 1, 0)),
    ("ww", ("observable", "terms", 0, 0, 0)), ("ww", ("x0", 0, 0)), ("ww", ("t",)),
    ("ww", ("schedule", 0)), ("ww", ("assertions", 0, "value")),
    ("ww", ("assertions", 0, "N")), ("sup", ("eps",)), ("poly", ("p", 1)),
    ("poly", ("a",)), ("poly", ("observable1", "terms", 0, 1)),
    ("product", ("N",)), ("product", ("tol",)),
    ("nil", ("system", "alpha")), ("nil", ("weight", "g", 0)),
    ("nil", ("weight", "base", 2)), ("nil", ("weight", "invariant", "width")),
    ("nil", ("weight", "invariant", "ell")),
    ("weights", ("weight", "left", "scale")),
    ("weights", ("weight", "left", "inner", "sup_error_budget")),
    ("weights", ("weight", "right", "left", "coefficients", 1)),
    ("weights", ("weight", "right", "right", "alpha", 0)),
    ("weights", ("weight", "right", "right", "base", 0)),
    ("weights", ("weight", "right", "right", "observable", "terms", 0, 1, 1)),
    ("cat", ("system", "matrix", 0, 1)), ("cat", ("system", "modulus")), ("cat", ("x0", 0, 1)),
]


_PHASES = {"weight1": {"kind": "polynomial_phase", "coefficients": [0.0, PHI]},
           "weight2": {"kind": "polynomial_phase", "coefficients": [0.0, 0.0, PHI]}}
# configs that run; `test_inputs_the_run_rejects_exit_2` moves one input of each out of range
_RUNNABLE_DOCS = {
    "product": _SLOT_DOCS["product"],
    "cube": dict(_PHASES, experiment="cube_average", H=4, N=64),
    "ghk": ww_config(experiment="ghk_seminorm", k=2, H=4),
    "sup": _SLOT_DOCS["sup"],
    "local": {"experiment": "local_seminorm", "k": 2, "H": 32, "schedule": [1024],
              "weight": _PHASES["weight2"]},
    "vdc": {"experiment": "vdc_bound", "N": 1024, "K": 20, "weight": _PHASES["weight1"]},
}


_TABLE = {"kind": "table", "path": "w.csv"}
# (config with a table weight, the field holding it, how far the run reads it: n < reach)
_TABLE_READS = {
    "cesaro": ({"experiment": "cesaro_nilseq", "schedule": [16], "weight": _TABLE}, "weight", 16),
    # orbit averages run n = 1..N
    "nil": (dict(_PAIR_DOC, experiment="nil_wwdr_avg", weight=_TABLE), "weight", 257),
    "vanishing": (dict(_PAIR_DOC, experiment="vanishing_experiment", k=1, weight=_TABLE),
                  "weight", 256),
    "local": ({"experiment": "local_seminorm", "k": 2, "H": 4, "schedule": [64],
               "weight": _TABLE}, "weight", 64 + 2 * 4),
    "local_coupled": ({"experiment": "local_seminorm", "k": 2, "schedule": [256],
                       "weight": _TABLE}, "weight", 256 + 2 * coupled_box_size(256)),
    "vdc": ({"experiment": "vdc_bound", "N": 64, "K": 6, "weight": _TABLE}, "weight", 64),
    "cube1": (dict(_PHASES, experiment="cube_average", H=4, N=32, weight1=_TABLE),
              "weight1", 32 + 3 * 3),
    "cube2": (dict(_PHASES, experiment="cube_average", H=4, N=32,
                   weight2={"kind": "scaled", "scale": 0.5, "inner": _TABLE}), "weight2", 41),
}


class TestTableReach:
    """A table weight shorter than the times its experiment reads is a config error."""

    @staticmethod
    def write_table(tmp_path, length):
        (tmp_path / "w.csv").write_text("n,re,im\n" + "".join(f"{n},1,0\n" for n in range(length)))

    @pytest.mark.parametrize("case", sorted(_TABLE_READS))
    def test_a_table_that_covers_the_reach_runs(self, case, tmp_path):
        doc, _, reach = _TABLE_READS[case]
        self.write_table(tmp_path, reach)
        assert run_experiment(config_from_dict(doc, base_dir=tmp_path), out_dir=tmp_path).rows

    @pytest.mark.parametrize("case", sorted(_TABLE_READS))
    def test_one_row_short_is_rejected_at_config_time(self, case, tmp_path):
        doc, field, reach = _TABLE_READS[case]
        self.write_table(tmp_path, reach - 1)
        with pytest.raises(ConfigError, match=f"n < {reach - 1}, .* reads n < {reach}") as err:
            config_from_dict(doc, base_dir=tmp_path)
        assert err.value.field == field

    def test_validate_and_run_exit_2(self, tmp_path, capsys):
        # a 2-row table with schedule [16] once validated and then failed the run with exit 3
        self.write_table(tmp_path, 2)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_TABLE_READS["cesaro"][0]))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error: weight: weight defined for n < 2") == 2
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("kind", ["rotation", "anzai", "toral", "cat"])
    def test_only_full_system_kind_names(self, kind, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config(system={"kind": kind, "alpha": [PHI]})))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert "unknown system kind" in capsys.readouterr().err

    def test_empty_observable_needs_a_dimension(self):
        with pytest.raises(ConfigError, match="cannot infer dimension of an empty observable") as exc:
            config_from_dict(ww_config(observable={"terms": []}))
        assert exc.value.field == "observable"
        cfg = config_from_dict(ww_config(observable={"terms": [], "dimension": 1}))
        assert cfg.observable.dimension == 1 and cfg.observable.terms == ()

    def test_unused_keys_are_ignored(self):
        cfg = config_from_dict(ww_config(seed=3, grid_size=64))
        assert not hasattr(cfg, "seed") and not hasattr(cfg, "grid_size")
        assert cfg.raw["seed"] == 3  # echoed in the summary, read by nothing
        assert sorted(cfg.ignored_keys) == ["grid_size", "seed"]

    def test_oversized_lattice_modulus_is_config_error(self):
        # both are prime: the first past the int64 rule, the second the old largest modulus
        for q in ((1 << 31) + 11, (1 << 53) - 111):
            doc = {
                "experiment": "birkhoff_avg",
                "system": {"kind": "toral_automorphism", "matrix": [[2, 1], [1, 1]],
                           "modulus": q},
                "observable": {"terms": [[[1, 0], 1.0]]},
                "x0": [[1, 0]],
            }
            with pytest.raises(ConfigError, match="system.*2\\^31 - 1, .* fit in int64"):
                config_from_dict(doc)

    def test_matrix_entries_past_int64_run(self, tmp_path):
        # a det +1 matrix with entries past int64: the reader keeps the Python integers, and
        # the rows are the means of e(x) + (0.5 - 0.25i) e(2y) over n = 1..N of the exact orbit
        q, matrix = (1 << 31) - 1, ((2**70 + 1, 2**70), (1, 1))
        doc = {"experiment": "birkhoff_avg", "schedule": [16, 4096],
               "x0": [[3, 5], [q - 1, 12345]],
               "system": {"kind": "toral_automorphism", "matrix": matrix, "modulus": q},
               "observable": {"terms": [[[1, 0], 1.0], [[0, 2], [0.5, -0.25]]]}}
        cfg = config_from_dict(json.loads(json.dumps(doc)))
        assert cfg.system.matrix == matrix
        rows = iter(run_experiment(cfg, out_dir=tmp_path).rows)
        for x0 in doc["x0"]:
            orbit = oracles.cat_orbit(matrix, q, x0, 1, 1, 4096) / q
            terms = np.exp(2j * np.pi * orbit[:, 0]) + (0.5 - 0.25j) * np.exp(4j * np.pi * orbit[:, 1])
            for N in doc["schedule"]:
                row = next(rows)
                assert row.N == N and abs(complex(row.re, row.im) - terms[:N].mean()) < 1e-12

    def test_fraction_string_declares_rational(self):
        cfg = config_from_dict(ww_config(system={"kind": "rotation_torus", "alpha": ["1/3"]}))
        assert cfg.system.rational_angles == (Fraction(1, 3),)

    def test_decimal_literal_stays_irrational(self):
        cfg = config_from_dict(ww_config())
        assert cfg.system.rational_angles == (None,)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="list-experiments"):
            config_from_dict({"experiment": "nope"})

    def test_missing_required_field_named(self):
        doc = ww_config()
        del doc["t"]
        with pytest.raises(ConfigError, match="t"):
            config_from_dict(doc)

    # the id is also the first field of every ASCII CSV row: "a,b" wrote a 10-field row and
    # "café" failed the run only at the CSV write, with exit 3
    @pytest.mark.parametrize("rid", ["../escaped", "a/b", "a\\b", ".", "..", "", 7, "a,b", "café",
                                     "tab\tin", "line\nbreak", "nul\0"])
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

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # a decode error was reported as a numeric error, exit 3
        p = tmp_path / "latin1.json"
        p.write_bytes(json.dumps(ww_config(id="cafe")).replace("cafe", "caf\xe9").encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config: 'utf-8' codec"):
            load_config(p)
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli_main([*command, "--config", str(p)]) == 2
            assert "config error: cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ids_of_printable_ascii_run(self, tmp_path):
        rid = "ww run-1 (x=0.2; t=0.37)"
        report = run_experiment(config_from_dict(ww_config(id=rid, schedule=[4])),
                                out_dir=tmp_path)
        assert report.csv_path.read_bytes().split(b"\n")[1].startswith(rid.encode() + b",4,")

    def test_index_base_defaults(self):
        # each experiment fixes where n starts: an orbit average's first term is
        # f(T x0) e(t), at n = 1; a weight's Cesaro mean starts at w(0)
        row = run_experiment(config_from_dict(ww_config(schedule=[1]))).rows[0]
        want = np.exp(2j * np.pi * (0.2 + PHI)) * np.exp(2j * np.pi * 0.37)
        assert complex(row.re, row.im) == pytest.approx(want, abs=1e-15)
        doc = {"experiment": "cesaro_nilseq", "schedule": [1],
               "weight": {"kind": "polynomial_phase", "coefficients": [0.25, 0.5]}}
        row = run_experiment(config_from_dict(doc)).rows[0]
        assert complex(row.re, row.im) == pytest.approx(1j, abs=1e-15)

    @pytest.mark.parametrize("base", [0, 1])
    def test_index_base_is_rejected(self, base, tmp_path, capsys):
        # moving n's origin would shift every average by O(1/N), so it is not ignored
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config(index_base=base)))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error: index_base: ") == 2
        assert not (tmp_path / "out").exists()

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


# each scheduled experiment, and its one-shot function on the config's inputs at one N
_SCHEDULE = [1, 7, 1000, 1 << 14, (1 << 14) + 1]  # the last two about a block edge
_ONE_DOC = {"system": {"kind": "rotation_torus", "alpha": [PHI, 0.3]},
            "observable": {"terms": [[[1, 0], [0.6, 0.1]], [[2, -1], 0.4]]},
            "x0": [[0.2, 0.7], [0.5, 0.1]], "schedule": _SCHEDULE}
_TWO_DOC = {"system": {"kind": "anzai_skew", "alpha": PHI},
            "observable1": {"terms": [[[0, 1], 1.0], [[1, 0], [0.2, 0.3]]]},
            "observable2": {"terms": [[[1, 1], 0.6], [[0, 1], [0.0, 0.4]]]},
            "x0": [[0.2, 0.3], [0.6, 0.1]], "a": 1, "b": -2, "schedule": _SCHEDULE}
_SCHEDULED = {
    "birkhoff_avg": ({}, lambda c, x0, n: birkhoff_avg(c.system, c.observable, x0, n)),
    "ww_avg": ({"t": 0.31}, lambda c, x0, n: ww_avg(c.system, c.observable, x0, c.t, n)),
    "ww_sup": ({"eps": 0.01}, lambda c, x0, n: ww_sup(c.system, c.observable, x0, n, c.eps)),
    "double_avg": ({}, lambda c, x0, n: double_avg(
        c.system, c.observable1, c.observable2, x0, c.a, c.b, n)),
    "wwdr_avg": ({"t": 0.31}, lambda c, x0, n: wwdr_avg(
        c.system, c.observable1, c.observable2, x0, c.a, c.b, c.t, n)),
    "poly_wwdr_avg": ({"p": [0.1, 0.3, PHI]}, lambda c, x0, n: poly_wwdr_avg(
        c.system, c.observable1, c.observable2, x0, c.a, c.b, c.p, n)),
    "nil_wwdr_avg": ({"weight": {"kind": "heisenberg_nilseq", "g": [PHI, 0.3, 0.1],
                                 "invariant": {"kind": "theta", "ell": 1}}},
                     lambda c, x0, n: nil_wwdr_avg(
                         c.system, c.observable1, c.observable2, x0, c.a, c.b, c.weight, n)),
    "dual_system_avg": ({"system_s": {"kind": "rotation_torus", "alpha": [0.3]},
                         "g_list": [{"terms": [[[1], [0.5, 0.2]], [[-2], [0.0, 0.3]]]},
                                    {"terms": [[[0], 0.4], [[1], [0.6, -0.1]]]}]},
                        lambda c, x0, n: dual_system_avg(
                            c.system, c.observable1, c.observable2, x0, c.a, c.b,
                            c.system_s, c.g_list, n).l2_norm),
}


class TestScheduledRegistry:
    def test_every_scheduled_experiment_is_covered(self):
        scheduled = {name for name, entry in harness._EXPERIMENTS.items()
                     if entry.run.__qualname__.startswith("_scheduled.")}
        assert scheduled == set(_SCHEDULED)

    @pytest.mark.parametrize("experiment", sorted(_SCHEDULED))
    def test_rows_equal_the_one_shot_function(self, experiment):
        # each `_EXPERIMENTS` entry reads its factors, weight and reducer from the
        # config; its rows must have the bits of the one-shot function at every N
        more, one_shot = _SCHEDULED[experiment]
        doc = dict(_TWO_DOC if "observable1" in harness._EXPERIMENTS[experiment].required
                   else _ONE_DOC, experiment=experiment, id="e", **more)
        cfg = config_from_dict(doc)
        rows = run_experiment(cfg).rows
        assert len(rows) == len(cfg.x0) * len(_SCHEDULE)
        for i, x0 in enumerate(cfg.x0):
            for n, row in zip(_SCHEDULE, rows[i * len(_SCHEDULE):][:len(_SCHEDULE)], strict=True):
                assert (row.experiment_id, row.N) == (f"e/x{i}", n)
                want = one_shot(cfg, x0, n)
                if experiment == "ww_sup":
                    assert (row.sup, row.t_star) == (want.sup_value, want.t_star), (x0, n)
                elif experiment == "dual_system_avg":
                    assert (row.re, row.im) == (want, 0.0), (x0, n)
                else:
                    assert (row.re, row.im) == (want.real, want.imag), (x0, n)


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

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_raise(self, workers, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(config_from_dict(ww_config()), out_dir=tmp_path, workers=workers)
        assert not any(tmp_path.iterdir())

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

    def test_summary_carries_the_theta_window_budget(self, tmp_path):
        doc = {
            "experiment": "cesaro_nilseq", "id": "theta", "schedule": [16, 32],
            "weight": {"kind": "scaled", "scale": [0.5, 0.0],
                       "inner": {"kind": "heisenberg_nilseq", "g": [PHI, 0.3, 0.1],
                                 "invariant": {"kind": "theta", "ell": 1}}},
        }
        rep = run_experiment(config_from_dict(doc), out_dir=tmp_path)
        diag = json.loads(rep.summary_path.read_text())["diagnostics"]
        assert diag == [{"id": "theta", "error_budget": 0.5 * ThetaType(1).tail_bound}]
        assert rep.csv_path.read_text().splitlines()[0] == CSV_HEADER

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
        summary = json.loads(rep.summary_path.read_text())
        assert "extras" not in summary
        (diag,) = summary["diagnostics"]
        assert sorted(diag) == ["id", "lag_rounding_bound", "margin", "passed"]
        lhs, rhs = (r.abs for r in rep.rows)
        assert diag["id"] == "vdc_bound" and diag["passed"] is True
        assert diag["margin"] == rhs - lhs > 0
        assert summary["verdicts"][0]["detail"] == "pass flags: [True]"
        assert 0 < diag["lag_rounding_bound"] <= 1e-11 * 4096  # beta sum |u_n|^2, |u_n| = 1

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

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("H", [None, 8])
    def test_local_seminorm_rows_read_one_sample_run(self, k, H):
        # the weight is sampled once, for the last box; each row still equals
        # local_seminorm on exactly N + k H samples, bit for bit
        doc = {"experiment": "local_seminorm", "k": k, "schedule": [64, 100, 256, 1024],
               "weight": {"kind": "product",
                          "left": {"kind": "polynomial_phase", "coefficients": [0.1, PHI, 0.3]},
                          "right": {"kind": "heisenberg_nilseq", "g": [PHI, 0.3, 0.1],
                                    "invariant": {"kind": "theta", "ell": 1}}}}
        if H is not None:
            doc["H"] = H
        cfg = config_from_dict(doc)
        rep = run_experiment(cfg)
        for n, row in zip(doc["schedule"], rep.rows, strict=True):
            h = coupled_box_size(n) if H is None else H
            est = local_seminorm(weight_samples(cfg.weight, n + k * h), k, h, n)
            assert (row.N, row.seminorm, row.clamped) == (n, est.value, est.clamped)

    def test_summary_carries_seminorm_certificates(self, tmp_path):
        docs = [
            {"experiment": "local_seminorm", "id": "semi_local", "k": 2,
             "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.0, PHI]},
             "schedule": [256, 1024]},
            {"experiment": "ghk_seminorm", "id": "semi_ghk", "k": 2, "H": 8,
             "system": {"kind": "rotation_torus", "alpha": [PHI]},
             "observable": {"terms": [[[1], 1.0]]}, "x0": [[0.2]],
             "schedule": [256, 1024]},
            # as the benchmark's sb_vanishing: fiber-only frequencies, every row clamped
            {"experiment": "vanishing_experiment", "id": "semi_vanishing", "k": 2,
             "system": {"kind": "anzai_skew", "alpha": PHI},
             "observable1": {"terms": [[[0, 1], 1.0]]},
             "observable2": {"terms": [[[1, 1], 1.0]]}, "x0": [[0.2, 0.7]], "a": 1, "b": 2,
             "weight": {"kind": "polynomial_phase", "coefficients": [0.0, 0.37]},
             "schedule": [256, 512, 1024]},
        ]
        for doc, boxes in zip(docs, ([16, 32], [8, 8], [16, 16, 32]), strict=True):
            rep = run_experiment(config_from_dict(doc), out_dir=tmp_path)
            diag = json.loads(rep.summary_path.read_text())["diagnostics"]
            assert [d["id"] for d in diag] == [doc["id"]]
            certs = diag[0]["seminorm"]
            assert [c["N"] for c in certs] == doc["schedule"]
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


_TINY = [64, 128]
# one tiny config of every experiment; the pointwise ones run two starting points
_RECORD_DOCS = {
    **{name: dict(_TWO_DOC if "observable1" in harness._EXPERIMENTS[name].required else _ONE_DOC,
                  experiment=name, schedule=_TINY, **more)
       for name, (more, _) in _SCHEDULED.items()},
    "cesaro_nilseq": {"experiment": "cesaro_nilseq", "schedule": _TINY,
                      "weight": _PHASES["weight2"]},
    "local_seminorm": {"experiment": "local_seminorm", "k": 2, "H": 4, "schedule": _TINY,
                       "weight": _PHASES["weight2"]},
    "ghk_seminorm": dict(_ONE_DOC, experiment="ghk_seminorm", k=2, H=4, schedule=_TINY),
    "vdc_bound": {"experiment": "vdc_bound", "N": 256, "K": 6, "weight": _PHASES["weight1"]},
    "cube_average": dict(_PHASES, experiment="cube_average", H=4, N=64),
    "vanishing_experiment": dict(_TWO_DOC, experiment="vanishing_experiment", k=1,
                                 weight=_PHASES["weight1"], schedule=_TINY),
    "product_formula_check": dict(_TWO_DOC, experiment="product_formula_check", N=256,
                                  tol=0.1),
}
# the keys of each experiment's records; the other scheduled averages report an error budget
_RECORD_KEYS = {
    "ww_sup": ["error_budget", "id", "sup"],
    "local_seminorm": ["id", "seminorm"],
    "ghk_seminorm": ["id", "seminorm"],
    "vanishing_experiment": ["error_budget", "id", "seminorm"],
    "vdc_bound": ["id", "lag_rounding_bound", "margin", "passed"],
    "product_formula_check": ["gap", "id", "passed"],
    "cube_average": ["id"],
}


class TestDiagnosticsRecord:
    """Every experiment's summary: one `diagnostics` record per task, holding that task's id."""

    def test_every_experiment_is_covered(self):
        assert sorted(_RECORD_DOCS) == list_experiments()

    @pytest.mark.parametrize("experiment", sorted(_RECORD_DOCS))
    def test_one_record_per_task(self, experiment, tmp_path):
        cfg = config_from_dict(dict(_RECORD_DOCS[experiment], id="e"))
        rep = run_experiment(cfg, out_dir=tmp_path)
        text = rep.summary_path.read_text()
        summary = json.loads(text)
        assert json.dumps(summary, sort_keys=True, indent=2) + "\n" == text
        assert "extras" not in summary
        tasks = ["e/x0", "e/x1"] if "x0" in harness._EXPERIMENTS[experiment].required else ["e"]
        assert [d["id"] for d in summary["diagnostics"]] == tasks
        assert {r.experiment_id.split(":")[0] for r in rep.rows} == set(tasks)
        keys = _RECORD_KEYS.get(experiment, ["error_budget", "id"])
        assert all(sorted(d) == keys for d in summary["diagnostics"])

    def test_check_flags_and_gaps_are_on_the_record(self, tmp_path):
        doc = dict(_RECORD_DOCS["product_formula_check"], id="e",
                   assertions=[{"check": "passed"}])
        summary = json.loads(run_experiment(config_from_dict(doc), tmp_path).summary_path
                             .read_text())
        assert all(d["passed"] is (d["gap"] <= 0.1) for d in summary["diagnostics"])
        flags = [d["passed"] for d in summary["diagnostics"]]
        assert summary["verdicts"][0]["detail"] == f"pass flags: {flags}"


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

    @pytest.mark.parametrize("q", [(1 << 31) + 11, (1 << 53) - 111])  # both prime
    def test_lattice_modulus_past_int64_rule_exits_2(self, q, tmp_path, capsys):
        doc = json.loads(json.dumps(_SLOT_DOCS["cat"]))
        doc["system"]["modulus"] = q
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli_main([*command, "--config", str(p)]) == 2
            assert "config error: system: modulus" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, workers, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config()))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out"),
                      "--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("k", [0, 5])
    def test_order_outside_range_exits_2(self, k, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "local_seminorm", "k": k, "schedule": [1024],
                                 "weight": {"kind": "polynomial_phase",
                                            "coefficients": [0.0, PHI]}}))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, over, field", [
        ("product", {"N": 0}, "N"),
        ("cube", {"H": 0}, "H"),
        ("ghk", {"H": 0}, "H"),
        ("sup", {"eps": -1}, "eps"),
        ("local", {"H": 64, "schedule": [1024]}, "H"),
        ("vdc", {"N": 100, "K": 20}, "K"),
    ])
    def test_inputs_the_run_rejects_exit_2(self, name, over, field, tmp_path, capsys):
        # every input the library would reject at run time is a config error up front
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_RUNNABLE_DOCS[name]))
        assert cli_main(["validate", "--config", str(p)]) == 0
        p.write_text(json.dumps(dict(_RUNNABLE_DOCS[name], **over)))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count(f"config error: {field}: ") == 2

    @pytest.mark.parametrize("width", [1e-200, 1e-160, 1e5])
    def test_theta_width_outside_range_exits_2(self, width, tmp_path, capsys):
        doc = json.loads(json.dumps(_SLOT_DOCS["nil"]))
        doc["weight"]["invariant"]["width"] = width
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error: weight: width must lie in") == 2

    @pytest.mark.parametrize("over", [{"alpha": [1.3]}, {"alpha": [-0.1]}, {"base": [1.0]},
                                      {"base": [-0.5]}])
    def test_torus_nilseq_outside_unit_interval_exits_2(self, over, tmp_path, capsys):
        # alpha and base are a rotation's angle and start point, which lie in [0, 1)
        weight = {"kind": "torus_nilseq", "alpha": [PHI], "base": [0.1],
                  "observable": {"terms": [[[1], 1.0]]}}
        doc = {"experiment": "cesaro_nilseq", "schedule": [16], "weight": weight}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        p.write_text(json.dumps(dict(doc, weight=dict(weight, **over))))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error: weight: ") == 2

    @pytest.mark.parametrize("over, field", [
        ({"system_s": {"kind": "anzai_skew", "alpha": 0.3}}, "system_s"),
        ({"g_list": [{"terms": [[[1, 0], 1.0]]}]}, "g_list"),
        ({"g_list": [{"terms": [[[1], 1.0]]}] * 4}, "g_list"),
    ])
    def test_bad_auxiliary_system_exits_2(self, over, field, tmp_path, capsys):
        # the auxiliary inputs are checked when the config is read, not when it runs
        doc = {"experiment": "dual_system_avg",
               "system": {"kind": "rotation_torus", "alpha": [PHI]},
               "observable1": {"terms": [[[1], 1.0]]}, "observable2": {"terms": [[[1], 1.0]]},
               "x0": [[0.2]], "a": 1, "b": 2,
               "system_s": {"kind": "rotation_torus", "alpha": [0.3]},
               "g_list": [{"terms": [[[1], 1.0]]}], "schedule": [256]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(doc, **over)))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count(f"config error: {field}: ") == 2
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0

    @pytest.mark.parametrize("field", ["observable", "observable1", "observable2"])
    def test_observable_dimension_not_the_systems_exits_2(self, field, tmp_path, capsys):
        # a 2-d observable on a circle rotation is a config error when the config is read,
        # not a numeric error (exit 3) once the run evaluates it
        doc = ww_config()
        if field != "observable":
            del doc["observable"], doc["t"]
            doc.update(experiment="double_avg", observable1={"terms": [[[1], 1.0]]},
                       observable2={"terms": [[[2], 1.0]]}, a=1, b=2)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        p.write_text(json.dumps(dict(doc, **{field: {"terms": [[[1, 0], 1.0]]}})))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {field}: observable dimension 2 != system "
                         "dimension 1") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name, path", _NUMERIC_SLOTS,
                             ids=[".".join([name, *map(str, path)]) for name, path in _NUMERIC_SLOTS])
    def test_non_finite_number_exits_2(self, name, path, value, tmp_path, capsys):
        # json reads NaN and Infinity; in any numeric slot they are config errors
        (tmp_path / "w.csv").write_text("n,re,im\n0,1,0\n1,0,1\n")
        doc = json.loads(json.dumps(_SLOT_DOCS[name]))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 2
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and ("finite" in err or "integer" in err)
        assert not (tmp_path / "out").exists()

    def test_run_out_is_a_file_exits_3(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before the experiment runs; a file in its
        # way is one line on stderr and exit 3, not a traceback after the run
        def never(*args):
            raise AssertionError("the experiment ran")
        entry = harness._EXPERIMENTS["ww_avg"]
        monkeypatch.setitem(harness._EXPERIMENTS, "ww_avg", entry._replace(run=never))
        p = tmp_path / "c.json"
        p.write_text(json.dumps(ww_config()))
        out = tmp_path / "out"
        out.write_text("")
        assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err

    def test_ignored_key_is_named_on_stderr_and_in_the_summary(self, tmp_path, capsys):
        # a misspelled "shedule" runs on the default schedule, so it is reported, not silent
        doc = ww_config(shedule=[4])
        del doc["schedule"]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.count("warning: shedule: ") == 2
        assert len((tmp_path / "out" / "rotation_ww.csv").read_text().splitlines()) == 1 + 7
        summary = json.loads((tmp_path / "out" / "rotation_ww.summary.json").read_text())
        assert summary["ignored_keys"] == ["shedule"]

    def test_seminorm_overflow_exits_3(self, tmp_path, capsys):
        # a finite weight whose 4-fold box products overflow float64 once wrote a nan row
        doc = {"experiment": "local_seminorm", "id": "big", "k": 2, "schedule": [64],
               "weight": {"kind": "scaled", "scale": 1e80, "inner": _PHASES["weight2"]}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "out" / "big.csv").exists()

    def test_cube_overflow_exits_3(self, tmp_path, capsys):
        # the 8-fold products of a weight scaled by 1e40 overflow; this once wrote a nan row
        doc = dict(_RUNNABLE_DOCS["cube"], id="cube_big",
                   weight1={"kind": "scaled", "scale": 1e40, "inner": _PHASES["weight1"]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "out" / "cube_big.csv").exists()

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
        # the rotation's times are int64: a * n = 2^53 + 1 at n = 1 is exact, and
        # a * 16 = 2^63 at N = 16 would wrap, so that run exits 3
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
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        row = (tmp_path / "out" / "double_avg.csv").read_text().splitlines()[1].split(",")
        want = np.mean(oracles.unit([float(oracles.exact_rotation(PHI, 0.2, doc["a"] * n)
                                           + oracles.exact_rotation(PHI, 0.2, n)) for n in range(1, 17)]))
        assert abs(complex(float(row[2]), float(row[3])) - want) < 1e-12
        p.write_text(json.dumps(dict(doc, a=1 << 59)))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out2")]) == 3
        assert "limit" in capsys.readouterr().err

    def test_run_skew_past_domain_exit_3(self, tmp_path, capsys):
        # exponent 2^24 at N = 256 asks the skew closed form for times up to 2^32, past
        # isqrt(2^63 - 1), where n(n-1) stops fitting in int64
        doc = {
            "experiment": "double_avg",
            "system": {"kind": "anzai_skew", "alpha": PHI},
            "observable1": {"terms": [[[0, 1], 1.0]]},
            "observable2": {"terms": [[[0, 1], 1.0]]},
            "x0": [[0.2, 0.3]],
            "a": 1,
            "b": 1 << 24,
            "schedule": [256],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert "limit" in capsys.readouterr().err


def _value_rows(rid, values):
    """Value rows of one experiment id at N = 1, 2, 4, ..., one per value."""
    return [Row(rid, N=1 << i, re=v, im=0.0, abs=abs(v)) for i, v in enumerate(values)]


_AT_N = [Row("e", N=4, abs=0.5, sup=0.5, seminorm=0.5), Row("e", N=8)]
# check -> (passing spec, failing spec, spec whose data is missing, rows, diagnostics, details):
# details are the passing, failing and missing-data verdicts' exact text
_VERDICTS = {
    "passed": ({}, {}, {}, [], None, ("pass flags: [True, True]", "pass flags: [True, False]",
                                      "pass flags: []")),
    "abs_below": ({"N": 4, "value": 0.75}, {"N": 4, "value": 0.5}, {"N": 2, "value": 1.0},
                  _AT_N, [], ("|A_4| = [0.5]", "|A_4| = [0.5]", "no rows at N=2")),
    "sup_below": ({"N": 4, "value": 0.75}, {"N": 4, "value": 0.5}, {"N": 16, "value": 1.0},
                  _AT_N, [], ("sup = [0.5]", "sup = [0.5]", "no rows at N=16")),
    "sup_at_least": ({"N": 4, "value": 0.5}, {"N": 4, "value": 0.75}, {"N": 2, "value": 0.0},
                     _AT_N, [], ("sup = [0.5]", "sup = [0.5]", "no rows at N=2")),
    "seminorm_below": ({"N": 4, "value": 0.5}, {"N": 4, "value": 0.25}, {"N": 2, "value": 1.0},
                       _AT_N, [], ("seminorm = [0.5]", "seminorm = [0.5]", "no rows at N=2")),
    "seminorm_between": ({"N": 4, "low": 0.5, "high": 0.5}, {"N": 4, "low": 0.0, "high": 0.25},
                         {"N": 2, "low": 0.0, "high": 1.0}, _AT_N, [],
                         ("seminorm = [0.5]", "seminorm = [0.5]", "no rows at N=2")),
    # deltas 0.5 at N=1, 0.125 at N=2, 0.25 at N=4
    "deltas_below_first": ({"from": 1}, {"from": 2}, {"from": 8},
                           _value_rows("e", [0.0, 0.5, 0.625, 0.875]), [],
                           ("e: delta@1=0.5, later=[0.125, 0.25]",
                            "e: delta@2=0.125, later=[0.25]", "no delta at N=8")),
    "delta_trend": ({"small": 1, "large": 2}, {"small": 2, "large": 4}, {"small": 1, "large": 8},
                    _value_rows("e", [0.0, 0.5, 0.625, 0.875]), [],
                    ("e: delta@1=0.5 delta@2=0.125", "e: delta@2=0.125 delta@4=0.25",
                     "need deltas at N=1 and N=8")),
}


class TestAssertionChecks:
    """Each assertion check's verdict and its exact detail, on rows built by hand."""

    @staticmethod
    def verdict(check, spec, rows, diagnostics):
        return harness._eval_assertion(dict(spec, check=check), rows, diagnostics)

    @pytest.mark.parametrize("check", sorted(_VERDICTS))
    def test_pass_fail_and_missing_data(self, check):
        good, bad, missing, rows, diagnostics, details = _VERDICTS[check]
        if check == "passed":
            diagnostics = [{"id": "e/x0", "passed": True}, {"id": "e/x1"},
                           {"id": "e/x2", "passed": True}]
        assert self.verdict(check, good, rows, diagnostics) == (True, details[0])
        if check == "passed":
            diagnostics = [{"id": "e/x0", "passed": True}, {"id": "e/x1", "passed": False}]
        assert self.verdict(check, bad, rows, diagnostics) == (False, details[1])
        if check == "passed":
            diagnostics = [{"id": "e/x0"}, {"id": "e/x1", "error_budget": 0.5}]
        assert self.verdict(check, missing, rows, diagnostics) == (False, details[2])

    def test_every_check_is_covered(self):
        assert sorted(_VERDICTS) == sorted(harness._CHECKS)

    @pytest.mark.parametrize("check", ["abs_below", "sup_below", "seminorm_between"])
    def test_rows_at_n_without_the_column_fail(self, check):
        spec = dict(_VERDICTS[check][0], N=8)
        label = "|A_8|" if check == "abs_below" else check.split("_")[0]
        assert self.verdict(check, spec, _AT_N, []) == (False, f"{label} = []")

    @pytest.mark.parametrize("check", ["deltas_below_first", "delta_trend"])
    def test_rows_without_values_have_no_deltas(self, check):
        assert self.verdict(check, _VERDICTS[check][0], _AT_N, []) == (False, "no value rows")

    def test_delta_details_join_the_ids_in_order(self):
        # deltas 0.5, 0.25, 0.125 for "d"; ids are taken in sorted order
        rows = _value_rows("e", [0.0, 0.5, 0.625, 0.875]) + _value_rows("d", [0.0, 0.5, 0.75, 0.875])
        assert self.verdict("deltas_below_first", {"from": 1}, rows, []) == (
            True, "d: delta@1=0.5, later=[0.125, 0.25]; e: delta@1=0.5, later=[0.125, 0.25]")
        assert self.verdict("delta_trend", {"small": 2, "large": 4}, rows, []) == (
            False, "d: delta@2=0.25 delta@4=0.125; e: delta@2=0.125 delta@4=0.25")


_WEIGHT_DOC = {"experiment": "cesaro_nilseq", "schedule": [2]}
_INVARIANTS = {"torus_char": {"kind": "torus_char", "m": 1, "k": 0},
               "theta": {"kind": "theta", "ell": 1, "width": 1.0}}
_POLY = {"kind": "polynomial_phase", "coefficients": [0.0, PHI]}
# kind -> (config, path to its spec, a spec of that kind that runs)
_KIND_CASES = {
    "rotation_torus": (ww_config(), ("system",), {"kind": "rotation_torus", "alpha": [PHI]}),
    "anzai_skew": (dict(_PAIR_DOC, experiment="double_avg"), ("system",),
                   {"kind": "anzai_skew", "alpha": PHI}),
    "toral_automorphism": (_SLOT_DOCS["cat"], ("system",), _SLOT_DOCS["cat"]["system"]),
    "polynomial_phase": (_WEIGHT_DOC, ("weight",), _POLY),
    "torus_nilseq": (_WEIGHT_DOC, ("weight",),
                     {"kind": "torus_nilseq", "alpha": [PHI], "base": [0.1],
                      "observable": {"terms": [[[1], 1.0]]}}),
    "heisenberg_nilseq": (_WEIGHT_DOC, ("weight",),
                          {"kind": "heisenberg_nilseq", "g": [PHI, 0.3, 0.1],
                           "invariant": _INVARIANTS["theta"]}),
    "product": (_WEIGHT_DOC, ("weight",), {"kind": "product", "left": _POLY, "right": _POLY}),
    "scaled": (_WEIGHT_DOC, ("weight",), {"kind": "scaled", "scale": 0.5, "inner": _POLY}),
    "table": (_WEIGHT_DOC, ("weight",), {"kind": "table", "path": "w.csv"}),
    "torus_char": (_WEIGHT_DOC, ("weight", "invariant"), _INVARIANTS["torus_char"]),
    "theta": (_WEIGHT_DOC, ("weight", "invariant"), _INVARIANTS["theta"]),
}
# (kind, a key its spec must hold, the field a missing one is reported on)
_REQUIRED_KEYS = [
    ("rotation_torus", "alpha", "system"), ("anzai_skew", "alpha", "system"),
    ("toral_automorphism", "matrix", "system"), ("polynomial_phase", "coefficients", "weight"),
    ("torus_nilseq", "alpha", "weight"), ("torus_nilseq", "observable", "weight"),
    ("heisenberg_nilseq", "g", "weight"), ("heisenberg_nilseq", "invariant", "weight"),
    ("product", "left", "weight"), ("product", "right", "weight"),
    ("scaled", "scale", "weight"), ("scaled", "inner", "weight"), ("table", "path", "weight"),
    ("torus_char", "m", "weight"), ("torus_char", "k", "weight"), ("theta", "ell", "weight"),
]


def _kind_doc(kind, spec):
    """The config of `_KIND_CASES[kind]` with `spec` in its place."""
    doc, path, _ = _KIND_CASES[kind]
    if path == ("weight", "invariant"):
        spec = dict(_KIND_CASES["heisenberg_nilseq"][2], invariant=spec)
    return dict(doc, **{path[0]: spec})


_DUAL_DOC = {"experiment": "dual_system_avg", "system": {"kind": "rotation_torus", "alpha": [PHI]},
             "observable1": {"terms": [[[1], 1.0]]}, "observable2": {"terms": [[[1], 1.0]]},
             "x0": [[0.2]], "a": 1, "b": 2, "schedule": [256],
             "system_s": {"kind": "rotation_torus", "alpha": [0.3]},
             "g_list": [{"terms": [[[1], 1.0]]}]}
# field -> a config whose spec on that field has no kind
_KINDLESS = {
    "system": ww_config(system={"alpha": [PHI]}),
    "system_s": dict(_DUAL_DOC, system_s={"alpha": [0.3]}),
    "weight": dict(_WEIGHT_DOC, weight={"left": _POLY, "right": _POLY}),
    "weight.left": dict(_WEIGHT_DOC, weight={"kind": "product", "left": {"coefficients": [0.0]},
                                             "right": _POLY}),
    "weight.invariant": _kind_doc("theta", {"ell": 1}),
}


class TestKindSpecs:
    """Every system, weight and invariant kind: the spec runs as given, and an unknown kind or
    a missing nested key is a config error (exit 2) on the spec's field."""

    @staticmethod
    def exits(doc, tmp_path, code):
        (tmp_path / "w.csv").write_text("n,re,im\n0,1,0\n1,0,1\n")
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == code
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == code

    @pytest.mark.parametrize("kind", sorted(_KIND_CASES))
    def test_the_spec_runs(self, kind, tmp_path):
        self.exits(_kind_doc(kind, _KIND_CASES[kind][2]), tmp_path, 0)

    @pytest.mark.parametrize("kind", sorted(_KIND_CASES))
    def test_unknown_kind_exits_2(self, kind, tmp_path, capsys):
        self.exits(_kind_doc(kind, dict(_KIND_CASES[kind][2], kind=kind + "_typo")), tmp_path, 2)
        field = ".".join(_KIND_CASES[kind][1])
        what = {"system": "system", "weight": "weight"}.get(field, "invariant")
        assert capsys.readouterr().err.count(
            f"config error: {field}: unknown {what} kind '{kind}_typo'") == 2

    @pytest.mark.parametrize("kind, key, field", _REQUIRED_KEYS)
    def test_missing_key_exits_2(self, kind, key, field, tmp_path, capsys):
        spec = {k: v for k, v in _KIND_CASES[kind][2].items() if k != key}
        self.exits(_kind_doc(kind, spec), tmp_path, 2)
        err = capsys.readouterr().err
        assert err.count(f"config error: {field}") == 2
        assert re.search(rf"\b{key}\b", err.split(": ", 2)[2])

    @pytest.mark.parametrize("field", sorted(_KINDLESS))
    def test_spec_without_a_kind_exits_2(self, field, tmp_path, capsys):
        self.exits(_KINDLESS[field], tmp_path, 2)
        assert capsys.readouterr().err.count(f"config error: {field}: ") == 2


class TestKindTables:
    """Each nested kind is one table entry, which names the keys its spec reads."""

    def test_the_tables_hold_every_kind(self):
        tables = harness._SYSTEMS | harness._WEIGHTS | harness._INVARIANTS
        assert sorted(tables) == sorted(_KIND_CASES)

    @pytest.mark.parametrize("kind, key, field", _REQUIRED_KEYS)
    def test_missing_key_is_one_message_on_the_spec_field(self, kind, key, field):
        spec = {k: v for k, v in _KIND_CASES[kind][2].items() if k != key}
        with pytest.raises(ConfigError) as err:
            config_from_dict(_kind_doc(kind, spec))
        want = ".".join(_KIND_CASES[kind][1])
        assert (err.value.field, str(err.value)) == (want, f"{want}: {kind} requires {key}")

    def test_missing_assertion_key_is_one_message(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(ww_config(assertions=[{"check": "seminorm_between", "N": 256,
                                                    "low": 0.0}]))
        assert str(err.value) == "assertions: seminorm_between requires high"

    def test_torus_nilseq_reads_a_rational_angle_as_a_rotation_does(self, tmp_path):
        spec = dict(_KIND_CASES["torus_nilseq"][2], alpha=["1/4"])
        cfg = config_from_dict(dict(_WEIGHT_DOC, weight=spec, schedule=[64]))
        assert cfg.weight.system.rational_angles == (Fraction(1, 4),)
        as_float = config_from_dict(dict(_WEIGHT_DOC, weight=dict(spec, alpha=[0.25]),
                                         schedule=[64]))
        assert run_experiment(cfg).rows == run_experiment(as_float).rows

    def test_lattice_points_are_integers(self):
        cfg = config_from_dict(_SLOT_DOCS["cat"])
        assert cfg.x0 == [(3, 5)] and all(type(v) is int for v in cfg.x0[0])
        with pytest.raises(ConfigError, match="expected an integer") as err:
            config_from_dict(dict(_SLOT_DOCS["cat"], x0=[[3.5, 5]]))
        assert err.value.field == "x0"

    def test_nested_keys_nothing_reads_are_named_with_their_paths(self, tmp_path, capsys):
        doc = dict(_KIND_CASES["heisenberg_nilseq"][0], id="unread", seed=3, weight={
            "kind": "product", "note": "x",
            "left": dict(_KIND_CASES["heisenberg_nilseq"][2],
                         invariant=dict(_INVARIANTS["theta"], truncation=8)),
            "right": dict(_KIND_CASES["torus_nilseq"][2], bsae=[0.1],
                          observable={"terms": [[[1], 1.0]], "dimensions": 1})},
            assertions=[{"check": "abs_below", "N": 2, "value": 2.0},
                        {"check": "abs_below", "N": 2, "value": 2.0, "why": "bounded"}])
        want = ["seed", "weight.note", "weight.left.invariant.truncation",
                "weight.right.bsae", "weight.right.observable.dimensions", "assertions[1].why"]
        assert config_from_dict(doc).ignored_keys == want
        for experiment_doc, key in ((ww_config(system={"kind": "rotation_torus", "alpha": [PHI],
                                                       "dim": 1}), "system.dim"),
                                    (dict(_SLOT_DOCS["cat"], system=dict(
                                        _SLOT_DOCS["cat"]["system"], moduls=7)), "system.moduls")):
            assert config_from_dict(experiment_doc).ignored_keys == [key]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["validate", "--config", str(p)]) == 0
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert [line.split(": ")[1] for line in err.splitlines()] == want * 2
        summary = json.loads((tmp_path / "out" / "unread.summary.json").read_text())
        assert summary["ignored_keys"] == want

    def test_shipped_configs_have_no_ignored_keys(self):
        paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert paths and all(load_config(p).ignored_keys == [] for p in paths)

    def test_declared_keys_the_experiment_does_not_read_are_named(self, tmp_path, capsys):
        doc = ww_config(experiment="birkhoff_avg", id="extra", eps=0.01, weight=_POLY)
        assert config_from_dict(doc).ignored_keys == ["t", "eps", "weight"]
        vanishing = dict(_PAIR_DOC, experiment="vanishing_experiment", k=1, weight=_POLY, H=4)
        assert config_from_dict(vanishing).ignored_keys == ["H"]
        # a key the run skips is still read: a malformed one is a config error on its field
        for key, bad in (("t", "0.37"), ("eps", -1.0), ("weight", {"kind": "nope"})):
            with pytest.raises(ConfigError) as err:
                config_from_dict(dict(doc, **{key: bad}))
            assert err.value.field == key
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert [line.split(": ")[1] for line in err.splitlines()] == ["t", "eps", "weight"]
        summary = json.loads((tmp_path / "out" / "extra.summary.json").read_text())
        assert summary["ignored_keys"] == ["t", "eps", "weight"]

    def test_every_config_key_is_read_by_some_experiment(self):
        reads = {key for e in harness._EXPERIMENTS.values() for key in e.required + e.optional}
        assert reads | {"assertions"} == set(harness._KEYS)

    def test_workload_configs_name_only_their_stale_keys(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        named = {}
        for w in ("orbit_weights", "seminorm_boxes", "sweep_peaked"):
            for path in workloads.write_configs(w, 0, Path("."), tmp_path / w, tiny=True):
                cfg = load_config(path)
                named.update({cfg.id: cfg.ignored_keys} if cfg.ignored_keys else {})
        assert named == {"ow_dual": ["grid_size"], "ow_nil_theta": ["weight.invariant.truncation"]}
