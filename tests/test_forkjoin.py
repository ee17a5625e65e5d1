"""The fork contract: which thread runs each branch, the one worker per caller,
how exceptions leave a fork, and the context the worker's branch sees."""

import threading
import time

import numpy as np
import pytest

from graphlap.forkjoin import fork_join, second_core


def where(name, log):
    """A branch that logs its name and thread and returns the thread."""
    def branch():
        log.append((name, threading.get_ident()))
        return threading.get_ident()
    return branch


class TestPlacement:
    def test_outside_second_core_here_then_there_on_the_caller(self):
        log = []
        results = fork_join(where("here", log), where("there", log))
        caller = threading.get_ident()
        assert log == [("here", caller), ("there", caller)]
        assert results == (caller, caller)

    def test_inside_there_runs_on_one_other_thread(self):
        caller = threading.get_ident()
        with second_core():
            forks = [fork_join(where("here", []), where("there", [])) for _ in range(3)]
        assert all(here == caller for here, _ in forks)
        workers = {there for _, there in forks}
        assert len(workers) == 1 and caller not in workers

    def test_a_fork_in_either_branch_stays_on_that_branch(self):
        log = []

        def nested(name):
            return lambda: fork_join(where(name + ".here", log), where(name + ".there", log))

        with second_core():
            fork_join(nested("here"), nested("there"))
        threads = dict(log)
        assert threads["here.here"] == threads["here.there"] == threading.get_ident()
        assert threads["there.here"] == threads["there.there"] != threading.get_ident()
        # each branch ran its own fork in order, here first
        assert [name for name in threads if name.startswith("here")] == ["here.here", "here.there"]
        assert [name for name in threads if name.startswith("there")] == ["there.here", "there.there"]

    def test_nested_second_core_reuses_the_worker(self):
        with second_core():
            _, outer = fork_join(lambda: None, threading.get_ident)
            before = threading.active_count()
            with second_core():
                _, inner = fork_join(lambda: None, threading.get_ident)
                assert threading.active_count() == before
        assert inner == outer != threading.get_ident()


class TestExceptions:
    def test_here_wins_when_both_raise_and_the_worker_is_joined(self):
        before = threading.active_count()
        finished = threading.Event()

        def here():
            raise KeyError("here")

        def there():
            time.sleep(0.05)  # here has long raised by now
            finished.set()
            raise ValueError("there")

        with second_core():
            with pytest.raises(KeyError, match="here"):
                fork_join(here, there)
            assert finished.is_set()  # joined before it raised
        assert threading.active_count() == before

    def test_there_alone_raises_after_here_returns(self):
        returned = []

        def here():
            time.sleep(0.05)  # there has long raised by now
            returned.append(threading.get_ident())
            return "here"

        def there():
            raise ValueError("there")

        with second_core():
            with pytest.raises(ValueError, match="there"):
                fork_join(here, there)
            assert returned == [threading.get_ident()]
            # the worker is free again for the next fork
            assert fork_join(lambda: 1, lambda: 2) == (1, 2)


def test_the_callers_errstate_reaches_there():
    def divide():
        return threading.get_ident(), np.float64(1.0) / np.float64(0.0)

    with second_core():
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                fork_join(lambda: None, divide)
        with np.errstate(divide="ignore"):
            _, (worker, value) = fork_join(lambda: None, divide)
    assert worker != threading.get_ident() and value == np.inf
