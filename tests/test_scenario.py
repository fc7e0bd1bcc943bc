"""Scenario parsing/validation, synthetic data and export round trips."""

import copy
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sailr import (CoefficientTable, Grid, IdentConfig, ModelParams,
                   Observations, Scenario, StabilityConfig, SynthSpec,
                   ValidationError, adjoint_p0, cost_p0, IdentCandidate, load_scenario,
                   read_csv_columns, scenario_from_dict, simulate, synth_observations,
                   Trajectory, write_adjoint_csv, write_summary_json, write_trajectory_csv)


def simulate_doc(**over):
    doc = {
        "name": "demo",
        "description": "",
        "task": "simulate",
        "params": {"sigma": 0.2, "mu_A": 0.1, "mu_I": 0.1, "mu_L": 0.1,
                   "l_A": 0.1, "l_I": 0.2, "beta_I": 0.4, "beta_A": 0.2, "xi": 0.0},
        "x0": {"S": 0.9, "A": 0.05, "I": 0.03, "L": 0.01, "R": 0.01},
        "grid": {"T": 5.0, "M": 100},
    }
    doc.update(over)
    return doc


class TestLoadScenario:
    def test_minimal_valid_with_defaults(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(simulate_doc()))
        s = load_scenario(path)
        assert s.task == "simulate"
        assert s.grid.t0 == 0.0          # default
        assert s.weights == (1e-6, 1e-6)  # default
        assert s.params.N == 1.0

    def test_lA_out_of_range(self, tmp_path):
        doc = simulate_doc()
        doc["params"]["l_A"] = 1.5
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert any("l_A out of [0,1]" in e for e in exc.value.errors)

    def test_identify_missing_LT(self):
        doc = simulate_doc(task="identify")
        doc["observations"] = {"L0": 0.01, "R0": 0.01, "RT": 0.02, "T": 5.0}
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert any("observations.LT required for task=identify" in e
                   for e in exc.value.errors)

    def test_all_errors_reported(self):
        doc = simulate_doc()
        doc["params"]["l_A"] = 1.5
        doc["params"]["sigma"] = -1.0
        doc["x0"]["S"] = 0.5  # breaks the sum-to-N check
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        msgs = "\n".join(exc.value.errors)
        assert "l_A out of [0,1]" in msgs
        assert "sigma" in msgs
        assert "sum to N" in msgs

    def test_parse_error_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"task": "simulate",\n  broken\n}')
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert any("line 2" in e for e in exc.value.errors)

    def test_control_lhat_validated(self):
        doc = simulate_doc(task="control")
        doc["penalty"] = {"alpha0": 1.0, "alpha1": 0.1, "alpha2": 1.0, "Lhat": 0.005}
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert any("Lhat must exceed L0" in e for e in exc.value.errors)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_stability_tol_must_be_positive(self, tol):
        # checked at load: a tol <= 0 would never be reached by the extinction run
        doc = copy.deepcopy(SHIPPED["stability_extinction"])
        doc["stability"]["tol"] = tol
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert any("stability.tol must be > 0" in e for e in exc.value.errors)

    def test_step_cap_is_inclusive(self):
        # loading allocates nothing, so the cap itself can be checked at its edge
        from sailr.integrate import MAX_STEPS
        doc = simulate_doc(grid={"T": 5.0, "M": MAX_STEPS})
        assert scenario_from_dict(doc).grid.M == MAX_STEPS
        doc = simulate_doc(grid={"T": 5.0, "M": MAX_STEPS + 1},
                           stability={"horizon": 1.0, "h": 0.5 / MAX_STEPS})
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert exc.value.errors == [
            f"grid.M must be <= {MAX_STEPS}",
            f"stability.horizon / stability.h must be <= {MAX_STEPS} steps"]

    def test_nonunit_population_rejected(self):
        doc = simulate_doc()
        doc["params"]["N"] = 2.0
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(doc)
        assert any("params.N must be 1" in e for e in exc.value.errors)


SHIPPED = {path.stem: json.loads(path.read_text())
           for path in sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))}
DELETE = object()
REPLACEMENTS = [DELETE, "text", True, None, math.nan, math.inf, -math.inf, [], [1], 7, {}]


def _nodes(node, path=()):
    """The path of every key and list entry below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


NODES = [(name, path) for name, doc in SHIPPED.items() for path in _nodes(doc)]


class TestShippedScenarios:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(node=st.sampled_from(NODES), value=st.sampled_from(REPLACEMENTS))
    def test_one_node_mutation_loads_or_is_validation_error(self, node, value):
        name, path = node
        doc = copy.deepcopy(SHIPPED[name])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        try:
            assert isinstance(scenario_from_dict(doc), Scenario)
        except ValidationError:
            pass


class TestSchemaDoc:
    def test_defaults_table_matches_settings_dataclasses(self):
        # one `solver.<key>` or `stability.<key>` row per field, its default as JSON
        text = (Path(__file__).parent.parent / "docs" / "scenario-schema.md").read_text()
        rows = re.findall(r"^\| `(solver|stability)\.(\w+)` +\| `([^`]+)`", text, re.M)
        documented = {(block, key): json.loads(default) for block, key, default in rows}
        assert len(documented) == len(rows)
        expected = {(block, f.name): f.default
                    for block, cls in (("solver", IdentConfig), ("stability", StabilityConfig))
                    for f in fields(cls)}
        assert documented == expected


class TestSynthObservations:
    def _spec(self, noise=0.0, seed=0):
        p = ModelParams(sigma=0.2, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1, l_I=0.2,
                        beta_I=0.0, beta_A=0.2, xi=0.0)
        g = Grid(0.0, 2.0, 200)
        return SynthSpec(params=p, grid=g, beta_I_true=CoefficientTable.constant(0.4),
                         A0_true=0.1, I0_true=0.05, L0=0.02, R0=0.01,
                         noise=noise, seed=seed)

    def test_zero_dynamics_returns_initials(self):
        p = ModelParams(sigma=0.3, mu_A=0.0, mu_I=0.0, mu_L=0.0, l_A=0.0, l_I=0.4,
                        beta_I=0.0, beta_A=0.0, xi=0.0)
        g = Grid(0.0, 2.0, 100)
        spec = SynthSpec(params=p, grid=g, beta_I_true=CoefficientTable.constant(0.0),
                         A0_true=0.0, I0_true=0.0, L0=0.02, R0=0.01)
        obs, ref = synth_observations(spec)
        assert (obs.LT, obs.RT) == (0.02, 0.01)

    def test_noiseless_reproducible_to_terminal(self):
        spec = self._spec()
        obs, ref = synth_observations(spec)
        resim = simulate(spec.params.replace(beta_I=spec.beta_I_true),
                         ref.states[0], spec.grid)
        assert abs(resim.L[-1] - obs.LT) <= 1e-12
        assert abs(resim.R[-1] - obs.RT) <= 1e-12

    def test_planted_candidate_has_zero_cost(self):
        spec = self._spec()
        obs, ref = synth_observations(spec)
        cand = IdentCandidate(spec.beta_I_true, spec.A0_true, spec.I0_true)
        assert cost_p0(cand, obs, 0.0, 0.0, spec.params, spec.grid) <= 1e-12

    def test_noise_deterministic_given_seed(self):
        a, _ = synth_observations(self._spec(noise=0.01, seed=7))
        b, _ = synth_observations(self._spec(noise=0.01, seed=7))
        c, _ = synth_observations(self._spec(noise=0.01, seed=8))
        assert a == b
        assert a != c

    def test_infeasible_truth_rejected(self):
        with pytest.raises(ValidationError):
            p = ModelParams(sigma=0.2, mu_A=0.1, mu_I=0.1, mu_L=0.1, l_A=0.1,
                            l_I=0.2, beta_I=0.0, beta_A=0.2, xi=0.0)
            SynthSpec(params=p, grid=Grid(0.0, 1.0, 10),
                      beta_I_true=CoefficientTable.constant(0.4),
                      A0_true=0.9, I0_true=0.4, L0=0.02, R0=0.01)


class TestExport:
    def test_trajectory_round_trip_bit_exact(self, tmp_path, rng):
        from conftest import random_params, random_state
        p = random_params(rng)
        # M + 1 = 1023, 1024, 1025 and 2049 rows put the end of the table on
        # either side of a block edge of the writer (1024 rows).
        for M in (57, 1022, 1023, 1024, 2048):
            tr = simulate(p, random_state(rng), Grid(0.0, 1.0, M))
            path = tmp_path / "tr.csv"
            write_trajectory_csv(tr, path)
            header, cols = read_csv_columns(path)
            assert header == ["t", "S", "A", "I", "L", "R"]
            assert len(cols[0]) == M + 1
            assert np.array_equal(cols[0], tr.grid.points())
            for j in range(5):
                assert np.array_equal(cols[j + 1], tr.states[:, j])

    def test_bytes_match_per_value_format(self, tmp_path):
        edges = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53 + 2,
                 math.nan, math.inf, -math.inf]
        states = np.array([[edges[(k + j) % 9] for j in range(5)] for k in range(9)])
        tr = Trajectory(Grid(0.0, 1.0, 8), states)
        path = tmp_path / "tr.csv"
        write_trajectory_csv(tr, path)
        rows = np.column_stack([tr.grid.points(), states]).tolist()
        expected = "t,S,A,I,L,R\n" + "".join(
            ",".join(format(x, ".17g") for x in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_writer_memory_bounded_by_block(self, tmp_path, rng):
        # The writer's peak is set by its block of rows, not by M: a
        # full-table column_stack alone would take 4.8 MB here.
        M = 100_000
        tr = Trajectory(Grid(0.0, 1.0, M), rng.uniform(0.0, 1.0, (M + 1, 5)))
        tracemalloc.start()
        try:
            write_trajectory_csv(tr, tmp_path / "tr.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    def test_csv_strictly_increasing_uniform_t(self, tmp_path, rng):
        from conftest import random_params, random_state
        p = random_params(rng)
        tr = simulate(p, random_state(rng), Grid(0.0, 2.0, 40))
        path = tmp_path / "tr.csv"
        write_trajectory_csv(tr, path)
        _, cols = read_csv_columns(path)
        dt = np.diff(cols[0])
        assert np.all(dt > 0)
        assert np.allclose(dt, tr.grid.h, rtol=1e-15)

    def test_csv_format_lf_no_trailing_comma(self, tmp_path, rng):
        from conftest import random_params, random_state
        p = random_params(rng)
        tr = simulate(p, random_state(rng), Grid(0.0, 1.0, 5))
        path = tmp_path / "tr.csv"
        write_trajectory_csv(tr, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b",\n" not in raw

    def test_adjoint_csv_header(self, tmp_path, rng):
        from conftest import random_params, random_state
        p = random_params(rng)
        tr = simulate(p, random_state(rng), Grid(0.0, 1.0, 20))
        adj = adjoint_p0(tr, p, Observations(0.01, 0.01, 0.05, 0.05, 1.0))
        write_adjoint_csv(adj, tmp_path / "a.csv")
        header, cols = read_csv_columns(tmp_path / "a.csv")
        assert header == ["t", "p", "q", "d", "e", "f"]
        assert len(cols[0]) == 21

    def test_empty_history_summary_valid(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json({"task": "simulate", "cost_history": []}, path)
        doc = json.loads(path.read_text())
        assert doc["cost_history"] == []

    def test_summary_numpy_values_match_python_values(self, tmp_path):
        as_numpy = {"cost": np.float64(0.1), "iterations": np.int64(7),
                    "converged": np.bool_(False), "residuals": {"gap": np.float64(np.nan)},
                    "history": [np.float64(1e-300), (np.int64(-2), np.bool_(True))],
                    "table": {"rows": np.array([[0.5, np.nan], [-0.0, 3.0]]),
                              "counts": np.arange(3)}}
        as_python = {"cost": 0.1, "iterations": 7,
                     "converged": False, "residuals": {"gap": math.nan},
                     "history": [1e-300, [-2, True]],
                     "table": {"rows": [[0.5, math.nan], [-0.0, 3.0]],
                               "counts": [0, 1, 2]}}
        write_summary_json(as_numpy, tmp_path / "numpy.json")
        write_summary_json(as_python, tmp_path / "python.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()

    def test_summary_preserves_field_order(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json({"b": 1, "a": 2}, path)
        text = path.read_text()
        assert text.index('"b"') < text.index('"a"')
