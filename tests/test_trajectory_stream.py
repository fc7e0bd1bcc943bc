"""`sailr simulate` streams trajectory.csv out while it solves, and `sailr
identify` and `sailr control` hand adjoint.csv to the same writer while they
write their other files: same bytes as write_trajectory_csv and
write_adjoint_csv.  identify's solve runs its reverse sweeps in-process
and forks nothing.  A failed run leaves no output file and no child
process; the CLI runners are fuzzed for tracebacks."""

import copy
import errno
import io
import json
import math
import os
import signal
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sailr import (BlowupError, ValidationError, identify, model, scenario_from_dict,
                   simulate, solve_p, solve_p0, write_adjoint_csv, write_trajectory_csv)
from sailr.child import frame, frame_heads
from sailr.cli import main
from sailr.scenario import write_series_csv
from conftest import _REFUSED, assert_no_child, refuse_fork

SCENARIOS = Path(__file__).parent.parent / "scenarios"


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that hangs, on a writer pipe say, instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("test still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def knotted_doc(M, T=3.0):
    """An epidemic with multi-knot rate tables over [0, T]."""
    return {
        "task": "simulate",
        "params": {"sigma": 0.25, "mu_A": 0.1, "mu_I": 0.12, "mu_L": 0.15,
                   "l_A": 0.25, "l_I": 0.35,
                   "beta_I": {"knots": [0.0, 0.7, 1.9, T], "values": [0.45, 0.3, 0.5, 0.35]},
                   "beta_A": {"knots": [0.0, 1.3, T], "values": [0.22, 0.15, 0.3]},
                   "xi": {"knots": [0.0, 2.2, T], "values": [0.03, 0.01, 0.04]}},
        "x0": {"S": 0.85, "A": 0.07, "I": 0.05, "L": 0.02, "R": 0.01},
        "grid": {"T": T, "M": M},
    }


def run_task(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return main([doc["task"], "--scenario", str(path), "--out", str(out), "--quiet"]), out


def run_simulate(tmp_path, doc):
    return run_task(tmp_path, dict(doc, task="simulate"))


def assert_same_bytes(tmp_path, doc, out):
    """out/trajectory.csv is what write_trajectory_csv makes of the solve."""
    s = scenario_from_dict(doc)
    write_trajectory_csv(simulate(s.params, s.x0, s.grid), tmp_path / "ref.csv")
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_no_outputs(out):
    """out holds no file (a directory that was there stays)."""
    assert [p.name for p in out.glob("*") if p.is_file() or p.is_symlink()] == []


@pytest.fixture(params=["no_fork", *_REFUSED])
def fork_failure(request, monkeypatch, fork_calls):
    """Each refusal of refuse_fork, made after fork_calls starts counting."""
    refuse_fork(monkeypatch, request.param)


GRID_SIZES = [1, 511, 512, 513, 1025, 10_000]


class TestByteIdentity:
    @pytest.mark.parametrize("M", GRID_SIZES)
    def test_forked_writer(self, tmp_path, fork_calls, M):
        doc = knotted_doc(M)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert len(fork_calls) == 1
        assert_same_bytes(tmp_path, doc, out)
        assert_no_child()

    @pytest.mark.parametrize("M", GRID_SIZES)
    def test_in_process_fallback(self, tmp_path, fork_calls, fork_failure, M):
        doc = knotted_doc(M)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert fork_calls == []
        assert_same_bytes(tmp_path, doc, out)
        assert_no_child()


class TestFailures:
    @pytest.mark.parametrize("forked", [True, False])
    def test_blowup_after_first_block(self, tmp_path, capsys, monkeypatch, fork_calls,
                                      forked):
        # h * mu_L = 2.8 lies just outside RK4's stability interval (2.785):
        # L oscillates with growing amplitude until the sum passes 1e100
        # at step 720, after the first block was sent
        if not forked:
            refuse_fork(monkeypatch)
        doc = knotted_doc(1000, T=100.0)
        doc["params"]["mu_L"] = 28.0
        code, out = run_simulate(tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sailr simulate: error: integration blow-up at step ")
        assert int(err.split()[-1]) > 512
        assert len(fork_calls) == forked
        assert_no_outputs(out)
        assert_no_child()

    def test_validation_error_inside_simulate(self, tmp_path, capsys, monkeypatch,
                                              fork_calls):
        def reject(p, t_max=None):
            raise ValidationError(["rejected inside simulate"])

        monkeypatch.setattr(model, "validate_params", reject)
        code, out = run_simulate(tmp_path, knotted_doc(1025))
        assert code == 1
        assert capsys.readouterr().err == "sailr simulate: error: rejected inside simulate\n"
        assert len(fork_calls) == 1
        assert_no_outputs(out)
        assert_no_child()

    def test_unopenable_file(self, tmp_path, capsys, fork_calls):
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        code, out = run_simulate(tmp_path, knotted_doc(1025))
        assert code == 1
        assert capsys.readouterr().err == (f"sailr export: error: {out / 'trajectory.csv'}: "
                                           f"{os.strerror(errno.EISDIR)}\n")
        assert fork_calls == []
        assert list((tmp_path / "out" / "trajectory.csv").iterdir()) == []
        assert_no_outputs(tmp_path / "out")
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_child_cannot_write(self, tmp_path, capsys, fork_calls):
        # every write to /dev/full fails with ENOSPC, inside the child
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trajectory.csv").symlink_to("/dev/full")
        code, out = run_simulate(tmp_path, knotted_doc(10_000))
        assert code == 1
        assert capsys.readouterr().err == (f"sailr export: error: {out / 'trajectory.csv'}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert len(fork_calls) == 1
        assert not os.path.lexists(tmp_path / "out" / "trajectory.csv")
        assert_no_outputs(tmp_path / "out")
        assert_no_child()


# ------------------------------------------- identify and control: adjoint.csv

_SERIES = {"identify": "beta_I.csv", "control": "multiplier.csv"}

#: forks per run: control forks its stage-map evaluator inside solve_p, then
#: each task the writer, so the writer's fork is the last one of each task
FORKS = {"simulate": 1, "identify": 1, "control": 2}


def solution_doc(task):
    """identify_synthetic (M = 1000), or control_binding at M = 100 with a loose cap."""
    if task == "identify":
        return json.loads((SCENARIOS / "identify_synthetic.json").read_text())
    doc = json.loads((SCENARIOS / "control_binding.json").read_text())
    doc["grid"]["M"] = 100
    doc["penalty"]["Lhat"] = 0.2
    return doc


@pytest.fixture(scope="module", params=["identify", "control"])
def solution(request, tmp_path_factory):
    """(task, scenario doc, directory of the files write_*_csv make of its solve)."""
    task = request.param
    doc = solution_doc(task)
    s = scenario_from_dict(doc)
    if task == "identify":
        res = solve_p0(s.observations, s.params, s.grid, *s.weights, s.solver)
        name, values = "beta_I", res.candidate.beta_I(s.grid.points())
    else:
        res = solve_p(s.penalty, s.params, s.x0, s.grid)
        name, values = "nu", res.multiplier_diag
    ref = tmp_path_factory.mktemp(f"{task}_ref")
    write_trajectory_csv(res.trajectory, ref / "trajectory.csv")
    write_adjoint_csv(res.adjoint, ref / "adjoint.csv")
    write_series_csv(ref / _SERIES[task], name, s.grid, values)
    return task, doc, ref


def assert_same_solution(solution, out):
    task, _, ref = solution
    for name in ("adjoint.csv", "trajectory.csv", _SERIES[task]):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert json.loads((out / "summary.json").read_text())["task"] == task


class TestAdjointExport:
    def test_forked_writer(self, tmp_path, solution, fork_calls):
        code, out = run_task(tmp_path, solution[1])
        assert code == 0
        assert len(fork_calls) == FORKS[solution[0]]
        assert_same_solution(solution, out)
        assert_no_child()

    def test_in_process_fallback(self, tmp_path, solution, fork_calls, fork_failure):
        code, out = run_task(tmp_path, solution[1])
        assert code == 0
        assert fork_calls == []
        assert_same_solution(solution, out)
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("forked", [True, False])
    def test_cannot_write(self, tmp_path, capsys, monkeypatch, solution, fork_calls, forked):
        # every write to /dev/full fails with ENOSPC, in the child or in send;
        # the files written meanwhile go too
        if not forked:
            refuse_fork(monkeypatch)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "adjoint.csv").symlink_to("/dev/full")
        code, out = run_task(tmp_path, solution[1])
        assert code == 1
        assert capsys.readouterr().err == (f"sailr export: error: {out / 'adjoint.csv'}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert len(fork_calls) == forked * FORKS[solution[0]]
        assert_no_outputs(out)
        assert_no_child()

    def test_child_killed_on_failure(self, tmp_path, capsys, solution, fork_calls, kills):
        # trajectory.csv cannot be opened while the child renders adjoint.csv:
        # the child is killed instead of finishing a file that goes anyway
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        code, out = run_task(tmp_path, solution[1])
        assert code == 1
        assert capsys.readouterr().err == (f"sailr export: error: {out / 'trajectory.csv'}: "
                                           f"{os.strerror(errno.EISDIR)}\n")
        assert len(fork_calls) == FORKS[solution[0]]
        # the writer's, not control's evaluator's
        assert kills == [(fork_calls[-1], signal.SIGKILL)]
        assert (out / "trajectory.csv").is_dir()
        assert_no_outputs(out)
        assert_no_child()


def task_doc(task):
    """A short run of each task: a shipped scenario, or solution_doc's."""
    if task in _SERIES:
        return solution_doc(task)
    name = {"simulate": "simulate_baseline", "stability": "stability_extinction",
            "synth": "synth_truth"}[task]
    return json.loads((SCENARIOS / f"{name}.json").read_text())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("task", ["simulate", "identify", "control"])
def test_one_cpu_run_does_not_fork(tmp_path, fork_calls, task):
    # the writer and control's evaluator fork only where the process may
    # use a second CPU; on one they run in-process, and the outputs are the
    # same bytes
    (tmp_path / "forked").mkdir()
    (tmp_path / "one_cpu").mkdir()
    code, forked = run_task(tmp_path / "forked", task_doc(task))
    assert code == 0 and len(fork_calls) == FORKS[task]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        code, out = run_task(tmp_path / "one_cpu", task_doc(task))
    finally:
        os.sched_setaffinity(0, cpus)
    assert code == 0
    assert len(fork_calls) == FORKS[task]  # the one-CPU run forked none
    files = sorted(p.name for p in forked.iterdir())
    assert sorted(p.name for p in out.iterdir()) == files
    for name in files:
        assert (out / name).read_bytes() == (forked / name).read_bytes(), name
    assert_no_child()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("task", ["simulate", "identify", "stability", "synth"])
def test_summary_cannot_write(tmp_path, capsys, task):
    # the CSV files were written before summary.json failed: they go too
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "summary.json").symlink_to("/dev/full")
    code, out = run_task(tmp_path, task_doc(task))
    assert code == 1
    assert capsys.readouterr().err == (f"sailr export: error: {out / 'summary.json'}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")
    assert_no_outputs(out)
    assert_no_child()


# ------------------------------------- identify's in-process reverse sweeps

def identify_problem(M):
    """identify_synthetic's problem on a grid of M steps."""
    doc = solution_doc("identify")
    doc["grid"]["M"] = M
    s = scenario_from_dict(doc)
    return s.observations, s.params, s.grid, s.weights, s.solver


def result_bytes(res):
    """Everything solve_p0 returns, as bytes to compare."""
    return (res.candidate.beta_I.values.tobytes(), res.candidate.A0, res.candidate.I0,
            res.cost, res.cost_history.tobytes(), res.optimality_residual,
            res.trajectory.states.tobytes(), res.adjoint.states.tobytes(), res.iterations,
            res.converged, res.forward_solves, res.notes)


#: steps of the start's exact pass in the solves of TestReverseHelper: on
#: identify_synthetic's 1000 steps the start then misses tol, and the solve
#: takes a fine iteration (9 sweeps) that the certificate does not judge
SMALL_COARSE_M = 20


@pytest.fixture
def small_pass(monkeypatch):
    monkeypatch.setattr(identify, "COARSE_M", SMALL_COARSE_M)


@pytest.fixture(scope="module")
def identify_reference():
    """solve_p0 on identify_synthetic, where os.fork exists."""
    obs, params, grid, weights, solver = identify_problem(1000)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(identify, "COARSE_M", SMALL_COARSE_M)
        return result_bytes(solve_p0(obs, params, grid, *weights, solver))


@pytest.mark.usefixtures("small_pass")
class TestReverseHelper:
    """solve_p0 forks no reverse-sweep helper: every sweep runs in-process."""

    def test_no_fork(self, identify_reference, monkeypatch, fork_calls):
        # every fine reverse sweep, one per iterate, goes through identify's
        # _rk4_model_vjp, which perfbench's model.vjp span wraps
        fine = []
        vjp = identify._rk4_model_vjp

        def counting_vjp(p, traj, cotangents):
            if traj.grid.M > identify.COARSE_M:
                fine.append(1)
            return vjp(p, traj, cotangents)

        monkeypatch.setattr(identify, "_rk4_model_vjp", counting_vjp)
        obs, params, grid, weights, solver = identify_problem(1000)
        res = solve_p0(obs, params, grid, *weights, solver)
        assert fork_calls == []
        assert result_bytes(res) == identify_reference
        assert len(fine) == res.iterations + 1
        assert_no_child()

    def test_in_process_fallback(self, identify_reference, fork_calls, fork_failure):
        # without os.fork, or with the fork or a pipe failing, the same bits
        obs, params, grid, weights, solver = identify_problem(1000)
        res = solve_p0(obs, params, grid, *weights, solver)
        assert fork_calls == []
        assert result_bytes(res) == identify_reference
        assert_no_child()

    def test_error_in_reverse_sweep(self, tmp_path, capsys, monkeypatch, fork_calls):
        # a BlowupError from the fine reverse sweep reaches the caller, and
        # `sailr identify` exits 1 with no output file
        vjp = identify._rk4_model_vjp

        def blowup_fine(p, traj, cotangents):
            if traj.grid.M > identify.COARSE_M:
                raise BlowupError(7)
            return vjp(p, traj, cotangents)

        monkeypatch.setattr(identify, "_rk4_model_vjp", blowup_fine)
        obs, params, grid, weights, solver = identify_problem(1000)
        with pytest.raises(BlowupError, match="at step 7"):
            solve_p0(obs, params, grid, *weights, solver)
        code, out = run_task(tmp_path, solution_doc("identify"))
        assert code == 1
        assert capsys.readouterr().err == (
            "sailr identify: error: integration blow-up at step 7\n")
        assert fork_calls == []
        assert_no_outputs(out)
        assert_no_child()

    def test_parent_memory(self, fork_calls):
        # the solve holds each iterate's rows, blocks and adjoint, and the
        # buffers of its in-process sweep: the traced peak over one
        # Gauss-Newton iteration at M = 4096 is 21.5 trajectories' bytes
        # (3.5 MB), bounded with 5 % headroom.  The start's exact pass takes
        # SMALL_COARSE_M steps, so that the first fine iterate misses tol
        # and the iteration runs
        obs, params, grid, weights, solver = identify_problem(4096)
        solver = identify.IdentConfig(solver.tol, max_iters=1)  # the full solve peaks as high
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = solve_p0(obs, params, grid, *weights, solver)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fork_calls == [] and res.iterations == 1
        assert peak < 22.5 * res.trajectory.states.nbytes
        assert_no_child()

    def test_parent_error_mid_solve(self, monkeypatch, fork_calls, kills):
        # the second gradient fails: the error reaches the caller, and there
        # is no child to kill
        calls = []
        residual = identify._certificate

        def fail_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("error in the parent")
            return residual(*args)

        monkeypatch.setattr(identify, "_certificate", fail_second)
        obs, params, grid, weights, solver = identify_problem(1000)
        with pytest.raises(RuntimeError, match="error in the parent"):
            solve_p0(obs, params, grid, *weights, solver)
        assert fork_calls == [] and kills == []
        assert_no_child()

    def test_unconverged_run(self, tmp_path, fork_calls):
        # one iteration from the start reaches a residual of about 5e-9, not 1e-12
        doc = solution_doc("identify")
        doc["solver"].update(tol=1e-12, max_iters=1)
        code, out = run_task(tmp_path, doc)
        assert code == 2
        assert len(fork_calls) == FORKS["identify"]
        assert json.loads((out / "summary.json").read_text())["converged"] is False
        assert_no_child()

    def test_blowup_in_forward_solve(self, tmp_path, capsys, fork_calls):
        # h mu_L = 5.6, far outside RK4's stability interval: the first
        # forward solve of `sailr identify` blows up, before the writer forks
        doc = solution_doc("identify")
        doc["grid"]["M"] = 100
        doc["params"]["mu_L"] = 280.0
        code, out = run_task(tmp_path, doc)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "sailr identify: error: integration blow-up at step ")
        assert fork_calls == []
        assert_no_outputs(out)
        assert_no_child()


# ------------------------------------------------------------------ CLI fuzz

_BAD_VALUES = [None, True, "abc", "1", [], {}, [1.0], math.nan, math.inf, -math.inf,
               -1.0, 0, 0.5, 2, 1e308, -1e-300]


def _paths(doc, prefix=()):
    """Every key path of the nested objects in doc."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _baselines():
    """The shipped scenario of each fuzzed task, shortened: M = 100, and a
    stability segment of 40 steps (a mutation that deletes grid.M gets the
    default 10^4 and one that deletes stability.h 200 steps a segment,
    still a fraction of a second).  control runs control_binding at M = 100
    with the first three eps of its schedule (exit 2, about 0.6 s)."""
    docs = {task: task_doc(task) for task in ("simulate", "identify", "stability", "synth")}
    for task in ("simulate", "identify", "synth"):
        docs[task]["grid"]["M"] = 100
    docs["stability"]["stability"].update(horizon=2.0, h=0.05)
    docs["control"] = json.loads((SCENARIOS / "control_binding.json").read_text())
    docs["control"]["grid"]["M"] = 100
    docs["control"]["penalty"]["eps_schedule"] = [0.1, 0.05, 0.025]
    return docs


_BASELINES = _baselines()


def _mutations(task):
    """Lists of one to three mutations of the baseline of task."""
    paths = list(_paths(_BASELINES[task]))
    # control at the default grid.M = 10^4 takes minutes, not seconds
    deletable = [p for p in paths if not (task == "control" and p == ("grid", "M"))]
    return st.lists(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(paths), st.sampled_from(_BAD_VALUES)),
        st.tuples(st.just("delete"), st.sampled_from(deletable), st.none()),
        st.tuples(st.just("extra"), st.sampled_from([()] + paths),
                  st.sampled_from(_BAD_VALUES)),
    ), min_size=1, max_size=3)


def _mutate(doc, kind, path, value):
    node = doc
    for key in path if kind == "extra" else path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        return
    value = copy.deepcopy(value)  # [] and {} are shared by every example
    if kind == "set":
        node[path[-1]] = value
    elif kind == "delete":
        node.pop(path[-1], None)
    else:
        node["unexpected_key"] = value


def check_fuzz_run(capsys, task, mutations):
    """A mutated baseline either runs (exit 0, or 2 for an inconclusive
    stability run or an unconverged identify or control run, with outputs
    that parse)
    or is refused with only `sailr load:` / `sailr <task>:` error lines and
    no output file."""
    doc = copy.deepcopy(_BASELINES[task])
    for kind, path, value in mutations:
        _mutate(doc, kind, path, value)
    doc["task"] = task
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_task(Path(tmp), doc)
        err = capsys.readouterr().err
        assert code in ((0, 1, 2) if task in ("stability", "identify", "control") else (0, 1))
        if code == 1:
            lines = err.splitlines()
            assert lines
            assert all(ln.startswith(("sailr load: error: ", f"sailr {task}: error: "))
                       for ln in lines), err
            assert_no_outputs(out)
        else:
            assert err == ""
            summary = json.loads((out / "summary.json").read_text())
            assert summary["task"] == task
            header, rows = _read_csv(out / "trajectory.csv")
            assert header == "t,S,A,I,L,R"
            assert rows.shape[1] == 6 and rows.shape[0] >= 2
            if task != "stability":  # its file is the first segment's
                assert rows.shape[0] == scenario_from_dict(doc).grid.M + 1
            if task in _SERIES:
                for name in ("adjoint.csv", _SERIES[task]):
                    assert _read_csv(out / name)[1].shape[0] == rows.shape[0]
        assert_no_child()


def _read_csv(path):
    """(header, rows) of an output CSV file whose every number is finite."""
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.isfinite(rows))
    return lines[0], rows


_FUZZ = settings(max_examples=40, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(_mutations("simulate"))
def test_fuzz_simulate(capsys, mutations):
    check_fuzz_run(capsys, "simulate", mutations)


@_FUZZ
@given(_mutations("identify"))
def test_fuzz_identify(capsys, mutations):
    check_fuzz_run(capsys, "identify", mutations)


@settings(_FUZZ, max_examples=10)
@given(_mutations("control"))
def test_fuzz_control(capsys, mutations):
    check_fuzz_run(capsys, "control", mutations)


@_FUZZ
@given(_mutations("stability"))
def test_fuzz_stability(capsys, mutations):
    check_fuzz_run(capsys, "stability", mutations)


@_FUZZ
@given(_mutations("synth"))
def test_fuzz_synth(capsys, mutations):
    check_fuzz_run(capsys, "synth", mutations)



def test_frames_round_trip():
    # the wire format of GridCsvWriter's frames
    rows = np.arange(6.0)
    pipe = io.BytesIO(frame(3, 5) + rows.tobytes() + frame(-2, 0))
    heads = frame_heads(pipe)
    assert next(heads) == (3, 5)
    assert pipe.read(rows.nbytes) == rows.tobytes()
    assert next(heads) == (-2, 0)
    assert next(heads, None) is None
