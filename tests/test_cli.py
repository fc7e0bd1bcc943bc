"""Command-line entry point: tasks, overrides, exit codes, outputs."""

import copy
import errno
import json
import os
import re
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

    @pytest.mark.parametrize("task, scenario, M", [
        ("simulate", "simulate_baseline", 2000),
        ("identify", "identify_synthetic", 200),
        ("control", "control_binding", 50),
    ])
    def test_forked_children_write_no_stderr(self, tmp_path, task, scenario, M):
        # the writer, the reverse helper and the stage-map evaluator end
        # without a word on stderr (a child's unclosed file warned there)
        src = str(Path(sailr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "sailr.cli", task, "--scenario",
                               str(SCENARIOS / f"{scenario}.json"), "--set", f"grid.M={M}",
                               "--out", str(tmp_path), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_missing_scenario_is_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path), "--quiet"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unreadable_scenario_is_error(self, tmp_path, capsys):
        # a directory opens with IsADirectoryError: a load error, not an export one
        code = main(["simulate", "--scenario", str(tmp_path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == (f"sailr load: error: cannot read scenario file "
                                           f"{tmp_path}: {os.strerror(errno.EISDIR)}\n")

    @pytest.mark.parametrize("content, error", [
        (b"\xff\xfe{}", "cannot read scenario file {path}: 'utf-8' codec can't decode byte 0xff "
                        "in position 0: invalid start byte"),
        (b"[" * 100_000, "parse error: arrays or objects nested too deeply"),
    ], ids=["not-utf8", "nested-too-deeply"])
    def test_undecodable_scenario_is_error(self, tmp_path, capsys, content, error):
        # a file that is not UTF-8 or nests past the recursion limit: a load error
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"sailr load: error: {error.format(path=path)}\n"
        assert not out.exists()


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
        # one iteration from the start reaches a residual of about 5e-9, not 1e-12
        ident["solver"] = {"tol": 1e-12, "max_iters": 1}
        path = write_doc(tmp_path, ident, "ident.json")
        code = main(["identify", "--scenario", path, "--out", str(tmp_path / "o2"),
                     "--quiet"])
        assert code == 2

    def test_stalled_line_search_exit_2_with_note(self, tmp_path):
        # a planted truth with S0 = 0 (A0 + I0 = N0), whose arc search finds
        # no decrease after 49 iterations, at a residual of 1.07e-3
        doc = json.loads(Path(IDENTIFY_SYNTHETIC).read_text())
        doc["grid"]["M"] = 1000
        doc["solver"]["max_iters"] = 60
        obs, _ = synth_observations(SynthSpec(
            params=scenario_from_dict(doc).params, grid=Grid(0.0, 2.0, 1000),
            beta_I_true=CoefficientTable.constant(0.2), A0_true=0.3, I0_true=0.67,
            L0=0.02, R0=0.01))
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

    def _recorded_steps(self, tmp_path, monkeypatch, *overrides):
        steps = []
        simulate = stability.simulate

        def recording_simulate(params, x0, grid):
            steps.append(grid.M)
            return simulate(params, x0, grid)

        monkeypatch.setattr(stability, "MAX_STEPS", 1000, raising=False)
        monkeypatch.setattr(stability, "simulate", recording_simulate)
        out = tmp_path / "out"
        code = main(["stability", "--scenario", STABILITY_EXTINCTION, "--out", str(out),
                     "--set", "stability.h=1.0", "--quiet",
                     *(a for o in overrides for a in ("--set", o))])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stability"]["extinction"] is False
        return steps, out

    def test_segments_stop_at_step_cap(self, tmp_path, monkeypatch):
        # the decay cannot reach this tol before the doubling meets the cap
        steps, _ = self._recorded_steps(tmp_path, monkeypatch, "stability.tol=1e-100")
        assert steps == [100, 100, 200, 400, 800]

    def test_no_isolation_decay_stops_after_first_segment(self, tmp_path, monkeypatch):
        # mu_L = 0: L' = l_A A + l_I I >= 0, so once L >= tol it never falls back
        steps, out = self._recorded_steps(tmp_path, monkeypatch, "params.mu_L=0")
        assert steps == [100]
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 101


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
    BOUNDS = {"simulate_baseline": 1, "synth_truth": 1, "identify_synthetic": 6,
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


class TestLoadErrors:
    """A scenario the loader rejects exits 1 with its error lines, and only
    those, on stderr: no traceback, nothing on stdout and no output file."""

    @pytest.mark.parametrize("task, scenario, overrides, errors", [
        ("control", "control_binding", ["x0.S=0.97", "x0.A=-0.02"],
         ["x0: components must be >= 0"]),
        ("identify", "identify_synthetic", ["grid.T=3"],
         ["grid must span [0, observations.T] for task=identify"]),
        ("identify", "identify_synthetic", ["grid.t0=1e-13"],
         ["grid must span [0, observations.T] for task=identify"]),
        ("identify", "identify_synthetic", ["observations.L0=0.5", "observations.R0=0.5"],
         ["observations.L0 + observations.R0 must be < 1"]),
        ("control", "control_binding", ["foo"], ["override 'foo' is not KEY=VALUE"]),
        ("control", "control_binding", ["params.sigma=abc"],
         ["params.sigma must be a finite number"]),
        ("control", "control_binding", ["params.sigma.x=1"],
         ["override path 'params.sigma.x' crosses a non-object field"]),
        ("simulate", "simulate_baseline", ["name=" + "[" * 5000],
         ["override 'name': value nested too deeply"]),
        ("control", [1, 2], [], ["scenario document must be a JSON object"]),
        ("control", "control_binding", ['penalty.anchor={"lA": 0.2}'],
         ["penalty.anchor.lI required for task=control"]),
        ("control", "control_binding", ['penalty.anchor={"lA": 1.5, "lI": 0.5}'],
         ["penalty.anchor: controls must lie in [0,1]^2"]),
        ("synth", "synth_truth", ["synth.L0=-0.1"], ["synth.L0 and R0 must be >= 0"]),
        ("synth", "synth_truth",
         ["synth.L0=0.5", "synth.R0=0.5", "synth.A0_true=0", "synth.I0_true=0"],
         ["synth.L0 + synth.R0 must be < 1"]),
        # a block's own checks name their field once, under the block's locus
        ("identify", "identify_synthetic",
         ["observations.LT=1.5", "observations.L0=0.6", "observations.R0=0.5",
          "observations.T=0"],
         ["observations.LT out of [0,1]", "observations.L0 + observations.R0 must be < 1",
          "observations.T must be > 0"]),
        ("synth", "synth_truth", ["synth.L0=-0.1", "synth.noise=2"],
         ["synth.L0 and R0 must be >= 0", "synth.noise must be in [0, 1]"]),
        ("simulate", "simulate_baseline", ["grid.M=0"], ["grid.M must be >= 1"]),
        ("simulate", "simulate_baseline", ["grid.T=-1"], ["grid.T must exceed t0"]),
        # the seed comes from the document, not the synth block
        ("synth", "synth_truth", ["seed=-1", "synth.noise=0.01"], ["synth: seed must be >= 0"]),
    ], ids=["x0-negative", "grid-span", "grid-t0", "no-unobserved-mass",
            "override-no-equals", "override-raw-string", "override-through-number",
            "override-nested-too-deeply",
            "document-array", "anchor-one-key", "anchor-out-of-range", "synth-L0-negative",
            "synth-no-unobserved-mass",
            "observations-fields", "synth-fields", "grid-M-zero", "grid-T-negative",
            "synth-seed-negative"])
    def test_rejected(self, tmp_path, capsys, task, scenario, overrides, errors):
        path = (str(SCENARIOS / f"{scenario}.json") if isinstance(scenario, str)
                else write_doc(tmp_path, scenario))
        out = tmp_path / "out"
        code = main([task, "--scenario", path, "--out", str(out), "--quiet",
                     *(a for o in overrides for a in ("--set", o))])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"sailr load: error: {m}" for m in errors]
        assert captured.out == ""
        assert not out.exists()


class TestConsoleSummary:
    """Without --quiet a run prints its summary; <wall> is the one field that
    differs between runs, and <e> a residual at rounding level."""

    @pytest.mark.parametrize("name, overrides, code, lines", [
        ("simulate_baseline", ["grid.M=200"], 0, [
            "task       : simulate  (baseline-epidemic)",
            "residual   : conservation_drift = <e>"]),
        ("identify_synthetic", ["grid.M=100"], 0, [
            "task       : identify  (identify-synthetic)",
            "cost       : 2.924258e-07",
            "residual   : optimality = 4.898e-09",
            "residual   : terminal_mismatch_sq = 5.334e-11",
            "R0 / S_bar : 0.366667 / 2.72727",
            "candidate  : A0=0.0854473 I0=0.137088 S0=0.747465"]),
        ("control_binding", ["grid.M=100", "penalty.Lhat=0.2",
                             "penalty.eps_schedule=[0.1, 0.05, 0.025, 0.0125]"], 0, [
            "task       : control  (control-binding)",
            "cost       : 1.641880e-02",
            "residual   : limit_fixed_point = 3.467e-04",
            "residual   : stage_fixed_point = 6.158e-10",
            "R0 / S_bar : 0.417786 / 2.39357",
            "controls   : lA=0.63895 lI=0.50588",
            "violation  : 0.000e+00",
            "note       : horizon T=8 is not below the local bound T_loc=0.11905; "
            "limit conditions are proven only below it"]),
        ("stability_extinction", [], 0, [
            "task       : stability  (stability-extinction)",
            "residual   : infected_mass = <e>",
            "R0 / S_bar : 1.33333 / 0.75",
            "regime     : subcritical  (S_inf=0.431416, hurwitz=True)"]),
        ("synth_truth", ["grid.M=50"], 0, [
            "task       : synth  (synthetic-truth)",
            "R0 / S_bar : 0.721277 / 1.38643"]),
    ], ids=["simulate", "identify", "control", "stability", "synth"])
    def test_printed_lines(self, tmp_path, capsys, name, overrides, code, lines):
        path = SCENARIOS / f"{name}.json"
        out = tmp_path / "out"
        assert main([json.loads(path.read_text())["task"], "--scenario", str(path),
                     "--out", str(out), *(a for o in overrides for a in ("--set", o))]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        printed = captured.out.splitlines()
        expected = lines + [f"exit       : {code}   wall <wall>   outputs in {out}"]
        assert len(printed) == len(expected), printed
        for line, want in zip(printed, expected):
            pattern = (re.escape(want).replace("<e>", r"\d\.\d{3}e-\d\d")
                       .replace("<wall>", r"\d+\.\d\ds"))
            assert re.fullmatch(pattern, line), (line, want)
