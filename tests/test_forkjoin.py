"""The fork contract: which thread runs each branch, the offers a nested fork
makes, the one worker per caller, how exceptions leave a fork, and the
context the other thread's branch sees.

Placements are decided by events the branches wait on, never by timing: a
thread held inside its branch takes no offer, and one whose branch has
returned takes the first offer it sees."""

import sys
import threading
import time

import numpy as np
import pytest

from graphlap.forkjoin import fork_join, second_core

# seconds a branch waits on an event before failing the test instead of hanging
TIMEOUT = 10


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

    def test_a_fork_in_either_branch_stays_there_while_the_other_is_held(self):
        # each branch forks while the other thread is held inside its own
        # branch, so nobody takes the offer and the forking thread runs it
        log = []
        main_forked, worker_forked = threading.Event(), threading.Event()

        def here():
            fork_join(where("here.here", log), where("here.there", log))
            main_forked.set()
            assert worker_forked.wait(TIMEOUT)

        def there():
            assert main_forked.wait(TIMEOUT)
            fork_join(where("there.here", log), where("there.there", log))
            worker_forked.set()

        with second_core():
            fork_join(here, there)
        threads = dict(log)
        assert threads["here.here"] == threads["here.there"] == threading.get_ident()
        assert threads["there.here"] == threads["there.there"] != threading.get_ident()
        # each branch ran its own fork in order, here first
        assert [name for name, _ in log] == ["here.here", "here.there", "there.here", "there.there"]

    def test_nested_second_core_reuses_the_worker(self):
        with second_core():
            _, outer = fork_join(lambda: None, threading.get_ident)
            before = threading.active_count()
            with second_core():
                _, inner = fork_join(lambda: None, threading.get_ident)
                assert threading.active_count() == before
        assert inner == outer != threading.get_ident()


@pytest.fixture
def no_new_threads():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.mark.usefixtures("no_new_threads")
class TestOffers:
    """A fork inside a branch offers its ``there`` to the other thread."""

    @pytest.mark.parametrize("branch", ["here", "there"])
    def test_an_idle_thread_takes_the_offer_once(self, branch):
        # the forking thread's here waits until the offer has started, which
        # only the other thread can do, once its own branch has returned
        log = []
        started = threading.Event()

        def offered():
            started.set()
            return where("offered", log)()

        def held():
            assert started.wait(TIMEOUT)
            return where("held", log)()

        forking, idle = (lambda: fork_join(held, offered)), (lambda: None)
        with second_core():
            results = fork_join(forking, idle) if branch == "here" else fork_join(idle, forking)
        nested = results[0] if branch == "here" else results[1]
        threads = dict(log)
        assert nested == (threads["held"], threads["offered"])
        assert sorted(name for name, _ in log) == ["held", "offered"]
        main = threading.get_ident()
        assert (threads["held"] == main) == (branch == "here") != (threads["offered"] == main)

    @pytest.mark.parametrize("branch", ["here", "there"])
    def test_the_forking_thread_runs_an_offer_nobody_took(self, branch):
        # the other thread is held in its branch until the fork has returned
        log = []
        forked = threading.Event()

        def forking():
            results = fork_join(where("held", log), where("offered", log))
            forked.set()
            return results

        def busy():
            assert forked.wait(TIMEOUT)

        with second_core():
            results = fork_join(forking, busy) if branch == "here" else fork_join(busy, forking)
        nested = results[0] if branch == "here" else results[1]
        threads = dict(log)
        assert [name for name, _ in log] == ["held", "offered"]
        assert nested == (threads["held"], threads["held"])
        assert (threads["held"] == threading.get_ident()) == (branch == "here")

    def test_a_full_slot_runs_the_fork_serially(self):
        # while the first fork's offer waits in the slot, a second fork made
        # in its here finds it full
        log = []
        inner = lambda: fork_join(where("inner.here", log), where("inner.there", log))
        forked = threading.Event()

        def forking():
            results = fork_join(inner, where("outer.there", log))
            forked.set()
            return results

        with second_core():
            fork_join(forking, lambda: forked.wait(TIMEOUT))
        assert [name for name, _ in log] == ["inner.here", "inner.there", "outer.there"]
        assert set(dict(log).values()) == {threading.get_ident()}

    def test_an_offer_the_other_thread_took_is_joined_before_here_raises(self):
        started, finished = threading.Event(), threading.Event()

        def offered():
            started.set()
            time.sleep(0.05)  # here has long raised by now
            finished.set()
            raise ValueError("offered")

        def held():
            assert started.wait(TIMEOUT)
            raise KeyError("held")

        def forking():
            with pytest.raises(KeyError, match="held"):
                fork_join(held, offered)
            return finished.is_set()

        with second_core():
            joined, _ = fork_join(forking, lambda: None)
        assert joined

    def test_an_offer_nobody_started_is_withdrawn_when_here_raises(self):
        ran = []
        forked = threading.Event()

        def raising():
            raise KeyError("held")

        def forking():
            with pytest.raises(KeyError, match="held"):
                fork_join(raising, lambda: ran.append(threading.get_ident()))
            forked.set()

        with second_core():
            fork_join(lambda: forked.wait(TIMEOUT), forking)
        assert ran == []

    def test_a_taken_offers_exception_alone_is_raised_by_the_fork(self):
        started = threading.Event()

        def offered():
            started.set()
            raise ValueError("offered")

        def forking():
            with pytest.raises(ValueError, match="offered"):
                fork_join(lambda: started.wait(TIMEOUT), offered)
            return "forked"

        with second_core():
            assert fork_join(forking, lambda: None) == ("forked", None)

    @pytest.mark.parametrize("taken", [True, False], ids=["other-thread", "own-thread"])
    @pytest.mark.parametrize("branch", ["here", "there"])
    def test_the_forking_errstate_reaches_the_offer(self, branch, taken):
        started, forked = threading.Event(), threading.Event()

        def divide():
            started.set()
            return np.float64(1.0) / np.float64(0.0)

        def held():
            assert not taken or started.wait(TIMEOUT)

        def forking():
            with np.errstate(divide="raise"):
                with pytest.raises(FloatingPointError):
                    fork_join(held, divide)
            started.clear()
            with np.errstate(divide="ignore"):
                _, value = fork_join(held, divide)
            forked.set()
            return value

        other = (lambda: None) if taken else (lambda: forked.wait(TIMEOUT))
        with second_core():
            results = fork_join(forking, other) if branch == "here" else fork_join(other, forking)
        assert (results[0] if branch == "here" else results[1]) == np.inf

    def test_a_fork_inside_a_taken_offer_completes(self):
        # the thread that took the offer forks again; the forking thread waits
        # for its offer and takes nothing, so the inner fork runs where it was made
        log = []
        started = threading.Event()

        def offered():
            started.set()
            return fork_join(where("inner.here", log), where("inner.there", log))

        def held():
            assert started.wait(TIMEOUT)
            return "held"

        with second_core():
            (first, inner), _ = fork_join(lambda: fork_join(held, offered), lambda: None)
        threads = dict(log)
        assert first == "held" and inner == (threads["inner.here"], threads["inner.there"])
        assert threads["inner.here"] == threads["inner.there"] != threading.get_ident()


def test_forks_in_every_branch_under_contention_run_each_leaf_once():
    # four callers on two cores fork in both branches of every fork and in
    # the offers, while the interpreter switches threads as often as it can:
    # an offer run twice or lost would change a sum or a count
    def tree(depth, leaves):
        if depth == 0:
            leaves.append(threading.get_ident())
            return 1
        return sum(fork_join(lambda: tree(depth - 1, leaves), lambda: tree(depth - 1, leaves)))

    checks = []

    def caller():
        leaves = []
        with second_core():
            checks.extend(tree(4, leaves) == 16 for _ in range(30))
        checks.append(len(leaves) == 30 * 16)

    before = threading.active_count()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in callers)
    assert len(checks) == 4 * 31 and all(checks)
    assert threading.active_count() == before


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
