"""One worker thread per solve or Radon assembly, and the one fork-join that
hands out work.  Which thread runs what is told here and nowhere else.

Every ``solve`` opens ``second_core()`` for its whole run, and so does every
``RadonTransform`` for its matrix assembly.  Inside it,
``fork_join(here, there)`` runs ``there`` on the worker and ``here`` on the
calling thread, waits for both and returns both results.  While it is out,
a fork made inside either branch puts its ``there`` in the one offer slot
the branches share and runs ``here``; the other thread takes the offer once
its own branch is done.  If nobody has started the offer when ``here``
returns, the forking thread withdraws it and runs it itself, so no thread
waits for a branch nobody started; a fork that finds the slot full runs
serially.  The solver's loop forks the graph term onto the worker: from
256^2 up the graph term offers its second pixel half, which the calling
thread takes once A and A* are done (``graphlap.graph``), and a worker done
with the graph term takes the A and A* halves the calling thread offers.
Outside the loop (the initializer, the norm estimate) the Radon transform's
A and A* give the worker half of each.  A ``second_core()`` block opened
where a worker is already open uses that worker, and one opened inside a
fork's branch opens none, so there is never more than one worker per
caller.  Outside ``second_core()`` every fork runs serially, ``here`` first.
Scipy's sparse kernels, ndimage's filters and numpy's ufuncs all release the
GIL, so both threads make progress.

The worker lives as long as its block rather than one thread per fork:
glibc gives a thread started while the last one is still exiting a malloc
arena of its own, so a solve that reuses its graph could hold a second set
of bands there.

``there`` runs in a copy of the caller's context, so ``np.errstate`` applies
to it too, on whichever thread runs it.  A fork joins before it returns or
raises: an exception from ``here`` wins over one from ``there``, which is
then dropped (an offer nobody started is withdrawn, one the other thread
took is waited for), and an exception from ``there`` alone is raised on the
forking thread after the join.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

# what a fork made in this context may use: None outside every second_core()
# block, the pool while its worker is free, the outstanding fork while one is out
_WORKER: contextvars.ContextVar[ThreadPoolExecutor | _Fork | None] = contextvars.ContextVar("worker", default=None)


class _Fork:
    """An outstanding top-level fork: the offer slot its branches share and
    how many of the two are still running."""

    def __init__(self):
        self.cond = threading.Condition()
        self.offer = None  # (future, context, there) of a nested fork, until started
        self.running = 2

    def branch(self, fn):
        """fn(), then the offers of the other thread until both branches are done."""
        try:
            return fn()
        finally:
            with self.cond:
                self.running -= 1
                self.cond.notify_all()
            while (offer := self._take()) is not None:
                future, context, there = offer
                try:
                    future.set_result(context.run(there))
                except BaseException as exc:  # as an executor does: the forking thread raises it
                    future.set_exception(exc)

    def _take(self):
        # an offer is withdrawn or joined before its fork returns, so once
        # both branches are done the slot stays empty
        with self.cond:
            self.cond.wait_for(lambda: self.offer is not None or not self.running)
            offer, self.offer = self.offer, None
            return offer

    def nested(self, here, there):
        """``(here(), there())`` with ``there`` in the slot while ``here`` runs."""
        with self.cond:
            full = self.offer is not None
            if not full:
                offer = self.offer = (Future(), contextvars.copy_context(), there)
                self.cond.notify_all()
        if full:
            return here(), there()
        try:
            first = here()
        finally:
            with self.cond:
                withdrawn = self.offer is offer
                if withdrawn:
                    self.offer = None
            if not withdrawn:
                wait((offer[0],))
        return first, there() if withdrawn else offer[0].result()


@contextlib.contextmanager
def second_core():
    """Open one worker thread for the block and join it on the way out."""
    if _WORKER.get() is not None:
        yield  # the open worker serves this block, or a fork holds it and offers instead
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        token = _WORKER.set(pool)
        try:
            yield
        finally:
            _WORKER.reset(token)


def fork_join(here, there):
    """``(here(), there())``, with ``there`` on the worker when one is free
    and offered to the other thread inside a fork."""
    state = _WORKER.get()
    if state is None:
        return here(), there()
    if isinstance(state, _Fork):
        return state.nested(here, there)
    fork = _Fork()
    token = _WORKER.set(fork)
    try:
        pending = state.submit(contextvars.copy_context().run, fork.branch, there)
        try:
            first = fork.branch(here)
        finally:
            wait((pending,))
    finally:
        _WORKER.reset(token)
    return first, pending.result()
