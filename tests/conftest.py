"""Shared expensive set-up and process fixtures for the test modules."""

import concurrent.futures
import os
import threading

import pytest

from acclab.geometry import WarpFamily
from acclab.spectral import SLGrid, solve_mode


@pytest.fixture(scope="session")
def cone_mode_solves():
    """N = 8192, 200-pair solves of the c = 1 cone modes mu = 0 and mu = 2.

    The reference for the cone mode kernel oracle; read-only for its users.
    """
    fam = WarpFamily.capped(n=3, c=1.0)
    return {mu: solve_mode(fam.radial_operator(mu, 0.0), SLGrid(8192), 200)
            for mu in (0.0, 2.0)}


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(count)` makes the mode solves see `count` usable CPUs."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return set_count


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools the test goes on to start."""
    started = []
    pool = concurrent.futures.ProcessPoolExecutor

    def counted(workers, **kwargs):
        started.append(workers)
        return pool(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return started


@pytest.fixture
def forks(monkeypatch):
    """The number of processes this process goes on to fork, pool workers
    included, as a one-element list."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


@pytest.fixture
def no_fork(monkeypatch):
    """Fails the test on any process pool or fork it goes on to start."""
    def refuse(*args, **kwargs):
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def another_thread():
    """A second Python thread, alive for the whole test."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    yield other
    release.set()
    other.join(timeout=10)
    assert not other.is_alive()
