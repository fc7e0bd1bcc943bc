"""Command-line entry point: tasks, overrides, exit codes, outputs."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sailr
from sailr import stability
from sailr.cli import main
from sailr import (CoefficientTable, Grid, SynthSpec, read_csv_columns, scenario_from_dict,
                   synth_observations)


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def simulate_doc(**over):
    doc = {
        "name": "cli-demo",
        "task": "simulate",
        "params": {"sigma": 0.3, "mu_A": 0.0, "mu_I": 0.0, "mu_L": 0.0,
                   "l_A": 0.0, "l_I": 0.4, "beta_I": 0.0, "beta_A": 0.0, "xi": 0.0},
        "x0": {"S": 0.97, "A": 0.0, "I": 0.0, "L": 0.02, "R": 0.01},
        "grid": {"T": 2.0, "M": 50},
    }
    doc.update(over)
    return doc


def epidemic_doc(**over):
    doc = {
        "name": "cli-epi",
        "task": "simulate",
        "params": {"sigma": 0.25, "mu_A": 0.1, "mu_I": 0.12, "mu_L": 0.15,
                   "l_A": 0.25, "l_I": 0.35, "beta_I": 0.4, "beta_A": 0.22,
                   "xi": 0.03},
        "x0": {"S": 0.85, "A": 0.07, "I": 0.05, "L": 0.02, "R": 0.01},
        "grid": {"T": 2.0, "M": 400},
    }
    doc.update(over)
    return doc


class TestSimulate:
    def test_zero_dynamics_constant_trajectory(self, tmp_path):
        path = write_doc(tmp_path, simulate_doc())
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", path, "--out", str(out), "--quiet"])
        assert code == 0
        _, cols = read_csv_columns(out / "trajectory.csv")
        for j, v in enumerate([0.97, 0.0, 0.0, 0.02, 0.01]):
            assert np.all(cols[j + 1] == v)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["task"] == "simulate"
        assert set(summary) >= {"task", "cost", "cost_history", "residuals",
                                "controls", "candidate", "R0", "S_bar",
                                "constraint_violation", "seed", "runtime"}

    def test_module_entry_point(self, tmp_path):
        # `python -m sailr.cli` runs the task, not just the import.
        path = write_doc(tmp_path, simulate_doc())
        out = tmp_path / "out"
        src = str(Path(sailr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "sailr.cli", "simulate", "--scenario",
                               path, "--out", str(out), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()

    def test_missing_scenario_is_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestIdentify:
    def _doc(self, tmp_path):
        doc = epidemic_doc(task="synth")
        doc["grid"] = {"T": 2.0, "M": 300}
        doc["synth"] = {"beta_I_true": 0.4, "A0_true": 0.12, "I0_true": 0.08,
                        "L0": 0.02, "R0": 0.01, "noise": 0.0}
        del doc["x0"]
        return doc

    def test_end_to_end_pipeline(self, tmp_path):
        # synth -> identify on the generated observations
        doc = self._doc(tmp_path)
        synth_path = write_doc(tmp_path, doc, "synth.json")
        out1 = tmp_path / "synth_out"
        assert main(["synth", "--scenario", synth_path, "--out", str(out1),
                     "--quiet"]) == 0
        obs = json.loads((out1 / "summary.json").read_text())["observations"]

        ident = dict(doc)
        ident["task"] = "identify"
        ident["observations"] = obs
        ident["weights"] = {"alpha0": 1e-6, "alpha1": 1e-6}
        ident["solver"] = {"tol": 1e-6, "max_iters": 200}
        ident_path = write_doc(tmp_path, ident, "ident.json")
        out2 = tmp_path / "ident_out"
        code = main(["identify", "--scenario", ident_path, "--out", str(out2),
                     "--quiet"])
        assert code == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["residuals"]["optimality"] <= 1e-6
        assert summary["converged"] is True
        assert (out2 / "beta_I.csv").exists()
        assert (out2 / "adjoint.csv").exists()

    def test_non_converged_exit_2(self, tmp_path):
        doc = self._doc(tmp_path)
        synth_path = write_doc(tmp_path, doc, "synth.json")
        out1 = tmp_path / "so"
        main(["synth", "--scenario", synth_path, "--out", str(out1), "--quiet"])
        obs = json.loads((out1 / "summary.json").read_text())["observations"]
        ident = dict(doc)
        ident["task"] = "identify"
        ident["observations"] = obs
        ident["solver"] = {"tol": 1e-6, "max_iters": 1}
        path = write_doc(tmp_path, ident, "ident.json")
        code = main(["identify", "--scenario", path, "--out", str(tmp_path / "o2"),
                     "--quiet"])
        assert code == 2

    def test_stalled_line_search_exit_2_with_note(self, tmp_path):
        # a planted truth whose arc search finds no decrease after 16 iterations
        doc = json.loads(Path(IDENTIFY_SYNTHETIC).read_text())
        doc["grid"]["M"] = 1000
        doc["solver"]["max_iters"] = 40
        obs, _ = synth_observations(SynthSpec(
            params=scenario_from_dict(doc).params, grid=Grid(0.0, 2.0, 1000),
            beta_I_true=CoefficientTable.constant(0.3561063940143885),
            A0_true=0.08624411839212873, I0_true=0.06667511300716819, L0=0.02, R0=0.01))
        doc["observations"] = {"L0": obs.L0, "R0": obs.R0, "LT": obs.LT, "RT": obs.RT,
                               "T": obs.T}
        out = tmp_path / "out"
        code = main(["identify", "--scenario", write_doc(tmp_path, doc), "--out", str(out),
                     "--quiet"])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["notes"] == ["line search stalled before reaching tolerance"]
        keys = list(summary)
        assert keys.index("notes") == keys.index("runtime") + 1 == keys.index("iterations") - 1


class TestControl:
    def test_lhat_validation_exit_1(self, tmp_path, capsys):
        doc = epidemic_doc(task="control")
        doc["penalty"] = {"alpha0": 1.0, "alpha1": 0.1, "alpha2": 1.0, "Lhat": 0.01}
        path = write_doc(tmp_path, doc)
        code = main(["control", "--scenario", path, "--out", str(tmp_path), "--quiet"])
        assert code == 1
        assert "Lhat must exceed L0" in capsys.readouterr().err

    def test_control_run(self, tmp_path):
        doc = epidemic_doc(task="control")
        doc["grid"] = {"T": 4.0, "M": 100}
        doc["penalty"] = {"alpha0": 2.0, "alpha1": 0.1, "alpha2": 1.0, "Lhat": 10.0,
                          "eps_schedule": [0.1 * 2 ** -k for k in range(8)]}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["control", "--scenario", path, "--out", str(out), "--quiet"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["controls"] is not None
        assert summary["constraint_violation"] == 0.0
        assert (out / "multiplier.csv").exists()


class TestStability:
    def test_stability_run(self, tmp_path):
        doc = epidemic_doc(task="stability")
        doc["params"]["xi"] = 0.0
        doc["stability"] = {"horizon": 50.0, "tol": 1e-8, "h": 0.01}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["stability", "--scenario", path, "--out", str(out), "--quiet"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stability"]["extinction"] is True
        assert summary["R0"] is not None

    def test_trajectory_is_first_segment(self, tmp_path):
        # the run writes the segment simulate_extinction integrated first
        # and counts no extra solve for it
        out = tmp_path / "out"
        assert main(["stability", "--scenario", STABILITY_EXTINCTION, "--out", str(out),
                     "--quiet"]) == 0
        s = scenario_from_dict(json.loads(Path(STABILITY_EXTINCTION).read_text()))
        report = stability.simulate_extinction(s.params, s.x0, s.stability)
        _, cols = read_csv_columns(out / "trajectory.csv")
        assert np.array_equal(np.column_stack(cols[1:]), report.first_segment.states)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runtime"] == report.segments

    def test_extinct_x0_simulates_once(self, tmp_path):
        doc = epidemic_doc(task="stability")
        doc["params"]["xi"] = 0.0
        doc["x0"] = {"S": 0.9, "A": 0.0, "I": 0.0, "L": 0.0, "R": 0.1}
        doc["stability"] = {"horizon": 2.0, "tol": 1e-8, "h": 0.01}
        out = tmp_path / "out"
        assert main(["stability", "--scenario", write_doc(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 0
        _, cols = read_csv_columns(out / "trajectory.csv")
        assert len(cols[0]) == 201
        assert json.loads((out / "summary.json").read_text())["runtime"] == 1

    def test_small_mass_above_threshold_is_not_extinct(self, tmp_path):
        # max(A, I, L) starts below tol, but S = 0.95 is above S_bar = 0.75:
        # the infection first grows, and extinction is certified only once
        # S has fallen below S_bar
        out = tmp_path / "out"
        assert main(["stability", "--scenario", STABILITY_EXTINCTION, "--out", str(out),
                     "--set", "x0.S=0.95", "--set", "x0.A=1e-9", "--set", "x0.I=0",
                     "--set", "x0.R=0.049999999", "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        st = summary["stability"]
        assert st["extinction"] is True and st["hurwitz"] is True
        assert st["horizon"] == 800.0
        assert st["S_tilde_inf"] == pytest.approx(0.5803, abs=1e-4)
        assert st["S_tilde_inf"] < summary["S_bar"] == 0.75

    def test_segments_stop_at_step_cap(self, tmp_path, monkeypatch):
        # mu_L = 0: L never decays, so the doubling runs until a cap stops it
        steps = []
        simulate = stability.simulate

        def recording_simulate(params, x0, grid):
            steps.append(grid.M)
            return simulate(params, x0, grid)

        monkeypatch.setattr(stability, "MAX_STEPS", 1000, raising=False)
        monkeypatch.setattr(stability, "simulate", recording_simulate)
        out = tmp_path / "out"
        code = main(["stability", "--scenario", STABILITY_EXTINCTION, "--out", str(out),
                     "--set", "params.mu_L=0", "--set", "stability.h=1.0", "--quiet"])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stability"]["extinction"] is False
        assert steps == [100, 100, 200, 400, 800]


CONTROL_BINDING = str(Path(__file__).parent.parent / "scenarios" / "control_binding.json")
STABILITY_EXTINCTION = str(Path(__file__).parent.parent / "scenarios"
                           / "stability_extinction.json")
IDENTIFY_SYNTHETIC = str(Path(__file__).parent.parent / "scenarios" / "identify_synthetic.json")


class TestOverridesAndDeterminism:
    @pytest.mark.parametrize("override, field", [
        ('params.sigma="abc"', "params.sigma"),
        ('seed="a"', "seed"),
        ("params.sigma=NaN", "params.sigma"),
        ("params.xi=Infinity", "params.xi"),
        ("penalty.eps_schedule=[]", "eps_schedule"),
        ("x0=5", "x0"),
        ("params=[1]", "params"),
        ("solver=3", "solver"),
        ("weights=5", "weights"),
        ("stability=3", "stability"),
        ("synth=3", "synth"),
        ("weights.alpha0=0", "weights.alpha0"),
        ("weights.alpha1=0", "weights.alpha1"),
        ("stability.h=0", "stability.h"),
        ("stability.h=-0.01", "stability.h"),
        ("stability.horizon=0", "stability.horizon"),
        ("solver.tol=0", "solver.tol"),
        ("solver.max_iters=0", "solver.max_iters"),
        ("grid.M=100000000000", "grid.M"),
        ("stability.h=1e-9", "stability.horizon / stability.h"),
        ("stability.horizon=1e9", "stability.horizon / stability.h"),
    ])
    def test_malformed_number_is_load_error(self, tmp_path, capsys, override, field):
        # stability keys go to the stability task and solver keys to identify,
        # the one task that reads them
        task, path = (("stability", STABILITY_EXTINCTION) if field.startswith("stability.")
                      else ("identify", IDENTIFY_SYNTHETIC) if field.startswith("solver.")
                      else ("control", CONTROL_BINDING))
        code = main([task, "--scenario", path, "--out", str(tmp_path),
                     "--set", override, "--quiet"])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("sailr load: error:")]
        assert any(field in line for line in errors), errors

    def test_set_override_applied(self, tmp_path):
        path = write_doc(tmp_path, simulate_doc())
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", path, "--out", str(out),
                     "--set", "grid.M=10", "--quiet"])
        assert code == 0
        _, cols = read_csv_columns(out / "trajectory.csv")
        assert len(cols[0]) == 11

    def test_invalid_override_same_error_as_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, simulate_doc())
        code = main(["simulate", "--scenario", path, "--out", str(tmp_path),
                     "--set", "params.l_A=1.5", "--quiet"])
        assert code == 1
        assert "l_A out of [0,1]" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        doc = epidemic_doc(task="synth")
        doc["grid"] = {"T": 2.0, "M": 200}
        doc["synth"] = {"beta_I_true": 0.4, "A0_true": 0.12, "I0_true": 0.08,
                        "L0": 0.02, "R0": 0.01, "noise": 0.01}
        del doc["x0"]
        path = write_doc(tmp_path, doc)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--scenario", path, "--out", str(out),
                         "--seed", "42", "--quiet"]) == 0
            outs.append(out)
        for fname in ("trajectory.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_env_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAILR_OUT", str(tmp_path / "envout"))
        path = write_doc(tmp_path, simulate_doc())
        assert main(["simulate", "--scenario", path, "--quiet"]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()


SCENARIOS = Path(__file__).parent.parent / "scenarios"


class TestSweepCounts:
    #: upper bounds on summary.json "runtime" (ODE sweeps); only ever tightened
    BOUNDS = {"simulate_baseline": 1, "synth_truth": 1, "identify_synthetic": 16,
              "stability_extinction": 3}

    def test_shipped_scenario_sweeps_bounded(self, tmp_path):
        for name, bound in self.BOUNDS.items():
            path = SCENARIOS / f"{name}.json"
            task = json.loads(path.read_text())["task"]
            out = tmp_path / name
            assert main([task, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
            runtime = json.loads((out / "summary.json").read_text())["runtime"]
            assert runtime <= bound, (name, runtime)


class TestRemovedSolverKeys:
    """Scenario files written for earlier versions keep loading: a solver key
    that names no setting is ignored, and the outputs do not change."""

    def _outputs(self, tmp_path, name, doc):
        out = tmp_path / name
        code = main([doc["task"], "--scenario", write_doc(tmp_path, doc, f"{name}.json"),
                     "--out", str(out), "--quiet"])
        assert code in (0, 2)
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def _identify_doc(self):
        doc = json.loads(Path(IDENTIFY_SYNTHETIC).read_text())
        doc["grid"] = {"T": doc["observations"]["T"], "M": 60}
        return doc

    def _control_doc(self):
        doc = epidemic_doc(task="control")
        doc["grid"] = {"T": 3.0, "M": 60}
        doc["penalty"] = {"alpha0": 2.0, "alpha1": 0.2, "alpha2": 1.0, "Lhat": 10.0,
                          "eps_schedule": [0.1 * 2 ** -k for k in range(5)]}
        return doc

    @pytest.mark.parametrize("make, removed", [
        ("_control_doc", {"multistart": True, "init": {"lA": 0.1, "lI": 0.2}}),
        ("_identify_doc", {"beta_init": 0.1}),
    ], ids=["control", "identify"])
    def test_removed_keys_change_no_output(self, tmp_path, make, removed):
        current = getattr(self, make)()
        old = copy.deepcopy(current)
        old.setdefault("solver", {}).update(removed)
        assert self._outputs(tmp_path, "old", old) == self._outputs(tmp_path, "new", current)


class TestUsageErrors:
    """Malformed command lines are malformed input: one error line and exit 1,
    returned from main(argv) rather than raised."""

    @pytest.mark.parametrize("argv", [
        ["control"],
        [],
        ["bogus"],
        ["control", "--scenario", CONTROL_BINDING, "--jobs", "2"],
        ["control", "--scenario", CONTROL_BINDING, "--seed", "abc"],
    ], ids=["no-scenario", "no-task", "unknown-task", "unknown-flag", "non-integer-seed"])
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("sailr: error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["control", "--help"])
        assert exc.value.code == 0
        assert "--scenario" in capsys.readouterr().out
