"""Shared builders for randomized model scenarios, and the fork fixtures."""

import errno
import os

import numpy as np
import pytest

from sailr import (CoefficientTable, Grid, ModelParams, PenaltyConfig, default_eps_schedule,
                   solve_p)


def random_params(rng, t_max=50.0, varying=False, xi_zero=False):
    """A valid parameter draw with moderate rates (k1, k2 bounded away from 0)."""
    def table(lo, hi):
        if varying and rng.random() < 0.5:
            n = rng.integers(2, 5)
            knots = np.sort(rng.uniform(0.0, t_max, n))
            knots[0] = 0.0
            knots[-1] = t_max
            return CoefficientTable(knots, rng.uniform(lo, hi, n))
        return CoefficientTable.constant(rng.uniform(lo, hi))

    return ModelParams(
        sigma=rng.uniform(0.05, 0.5),
        mu_A=rng.uniform(0.05, 0.5),
        mu_I=rng.uniform(0.05, 0.5),
        mu_L=rng.uniform(0.05, 0.5),
        l_A=rng.uniform(0.0, 1.0),
        l_I=rng.uniform(0.05, 1.0),
        beta_I=table(0.05, 0.6),
        beta_A=table(0.05, 0.6),
        xi=CoefficientTable.constant(0.0) if xi_zero else table(0.0, 0.2),
    )


def random_state(rng, min_frac=0.02):
    """Nonnegative compartments summing to 1, none vanishingly small."""
    x = rng.uniform(min_frac, 1.0, 5)
    return x / x.sum()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def control_binding_problem():
    """(pcfg, params, x0, grid) of scenarios/control_binding.json."""
    p = ModelParams(sigma=0.25, mu_A=0.12, mu_I=0.15, mu_L=0.2, l_A=0.0, l_I=0.0,
                    beta_I=0.45, beta_A=0.25, xi=0.02)
    g = Grid(0.0, 8.0, 400)
    x0 = np.array([0.9, 0.05, 0.03, 0.01, 0.01])
    pcfg = PenaltyConfig(alpha0=5.0, alpha1=0.02, alpha2=5.0, Lhat=0.04,
                         eps_schedule=default_eps_schedule(17))
    return pcfg, p, x0, g


@pytest.fixture(scope="session")
def control_binding():
    """(pcfg, params, x0, grid, solve_p's result) of control_binding's
    problem, solved once per session."""
    problem = control_binding_problem()
    return (*problem, solve_p(*problem))


# ------------------------------------------------- forked children

def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
def kills(monkeypatch):
    """The (pid, signal) of each os.kill in this process while the test runs."""
    sent = []
    kill = os.kill

    def spy(pid, sig):
        sent.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", spy)
    return sent


#: the system call that fails, and its errno, in each refusal but "no_fork"
_REFUSED = {"fork_eagain": ("fork", errno.EAGAIN), "pipe_emfile": ("pipe", errno.EMFILE)}


def refuse_fork(monkeypatch, failure="no_fork"):
    """Leave no child to fork: os.fork deleted ("no_fork"), os.fork failing
    with EAGAIN, or os.pipe failing with EMFILE, before any fork."""
    if failure == "no_fork":
        monkeypatch.delattr(os, "fork")
        return
    name, code = _REFUSED[failure]

    def fail():
        raise OSError(code, os.strerror(code))  # EAGAIN gives a BlockingIOError

    monkeypatch.setattr(os, name, fail)
