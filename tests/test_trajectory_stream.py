"""`sailr simulate` streams trajectory.csv out while it solves: same bytes as
write_trajectory_csv, and no file or child process left behind on an error."""

import errno
import json
import math
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sailr import (ValidationError, model, scenario_from_dict, simulate,
                   write_trajectory_csv)
from sailr.cli import main

SIMULATE_BASELINE = Path(__file__).parent.parent / "scenarios" / "simulate_baseline.json"


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


def run_simulate(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return main(["simulate", "--scenario", str(path), "--out", str(out), "--quiet"]), out


def assert_same_bytes(tmp_path, doc, out):
    """out/trajectory.csv is what write_trajectory_csv makes of the solve."""
    s = scenario_from_dict(doc)
    write_trajectory_csv(simulate(s.params, s.x0, s.grid), tmp_path / "ref.csv")
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_no_outputs(out):
    assert not (out / "trajectory.csv").is_file()
    assert not (out / "summary.json").exists()


@pytest.fixture
def fork_calls(monkeypatch):
    """The pids os.fork returns in this process while the test runs."""
    calls = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def one_cpu(monkeypatch):
    """The process may run on one CPU only."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


class TestByteIdentity:
    @pytest.mark.parametrize("M", [1, 511, 512, 513, 1025, 10_000])
    def test_forked_writer(self, tmp_path, fork_calls, M):
        doc = knotted_doc(M)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert len(fork_calls) == 1
        assert_same_bytes(tmp_path, doc, out)
        assert_no_child()

    @pytest.mark.parametrize("M", [1, 511, 512, 513, 1025, 10_000])
    def test_in_process_without_fork(self, tmp_path, monkeypatch, M):
        monkeypatch.delattr(os, "fork", raising=False)
        doc = knotted_doc(M)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert_same_bytes(tmp_path, doc, out)

    def test_in_process_when_fork_fails(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        doc = knotted_doc(1025)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert_same_bytes(tmp_path, doc, out)

    def test_in_process_on_one_cpu(self, tmp_path, one_cpu, fork_calls):
        doc = knotted_doc(1025)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert fork_calls == []
        assert_same_bytes(tmp_path, doc, out)

    def test_in_process_when_pipe_fails(self, tmp_path, monkeypatch, fork_calls):
        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        doc = knotted_doc(1025)
        code, out = run_simulate(tmp_path, doc)
        assert code == 0
        assert fork_calls == []
        assert_same_bytes(tmp_path, doc, out)


class TestFailures:
    @pytest.mark.parametrize("forked", [True, False])
    def test_blowup_after_first_block(self, tmp_path, capsys, request, fork_calls,
                                      forked):
        # h * mu_L = 2.8 lies just outside RK4's stability interval (2.785):
        # L oscillates with growing amplitude until the sum passes 1e100
        # at step 720, after the first block was sent
        if not forked:
            request.getfixturevalue("one_cpu")
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

    def test_unopenable_file(self, tmp_path, fork_calls):
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError, match="trajectory.csv"):
            run_simulate(tmp_path, knotted_doc(1025))
        assert fork_calls == []
        assert list((tmp_path / "out" / "trajectory.csv").iterdir()) == []
        assert_no_outputs(tmp_path / "out")
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_child_cannot_write(self, tmp_path, fork_calls):
        # every write to /dev/full fails with ENOSPC, inside the child
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trajectory.csv").symlink_to("/dev/full")
        with pytest.raises(OSError, match="trajectory.csv") as info:
            run_simulate(tmp_path, knotted_doc(10_000))
        assert info.value.errno == errno.ENOSPC
        assert len(fork_calls) == 1
        assert not os.path.lexists(tmp_path / "out" / "trajectory.csv")
        assert_no_outputs(tmp_path / "out")
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


def _baseline():
    # M = 100 keeps each run short; a mutation that deletes grid.M gets the
    # default 10^4, still a fraction of a second
    doc = json.loads(SIMULATE_BASELINE.read_text())
    doc["grid"]["M"] = 100
    return doc


_PATHS = list(_paths(_baseline()))

_mutation = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_PATHS), st.sampled_from(_BAD_VALUES)),
    st.tuples(st.just("delete"), st.sampled_from(_PATHS), st.none()),
    st.tuples(st.just("extra"), st.sampled_from([()] + _PATHS),
              st.sampled_from(_BAD_VALUES)),
)


def _mutate(doc, kind, path, value):
    node = doc
    for key in path if kind == "extra" else path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        return
    if kind == "set":
        node[path[-1]] = value
    elif kind == "delete":
        node.pop(path[-1], None)
    else:
        node["unexpected_key"] = value


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_mutation, min_size=1, max_size=3))
def test_fuzz_simulate(capsys, mutations):
    # Each mutated baseline either runs (exit 0, outputs that parse) or is
    # refused with only `sailr load:` / `sailr simulate:` error lines
    doc = _baseline()
    for kind, path, value in mutations:
        _mutate(doc, kind, path, value)
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, out = run_simulate(tmp, doc)
        err = capsys.readouterr().err
        assert code in (0, 1)
        if code == 0:
            assert err == ""
            summary = json.loads((out / "summary.json").read_text())
            assert summary["task"] == "simulate"
            lines = (out / "trajectory.csv").read_text().splitlines()
            assert lines[0] == "t,S,A,I,L,R"
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
            assert rows.shape == (scenario_from_dict(dict(doc, task="simulate")).grid.M + 1, 6)
            assert np.all(np.isfinite(rows))
        else:
            lines = err.splitlines()
            assert lines
            assert all(ln.startswith(("sailr load: error: ", "sailr simulate: error: "))
                       for ln in lines), err
            assert_no_outputs(out)
        assert_no_child()
