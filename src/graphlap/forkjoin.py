"""One worker thread per solve, and the one fork-join that hands it work.

Every ``solve`` opens ``second_core()`` for its whole run.  Inside it,
``fork_join(here, there)`` runs ``there`` on the worker and ``here`` on the
calling thread, waits for both and returns both results.  While a fork is
out the worker is taken, so a fork made inside either branch runs its two
branches one after the other on its own thread: the solver's loop forks the
graph term, and the A and A* halves forked inside that loop stay on the
calling thread.  Outside ``second_core()`` every fork runs serially, ``here``
first.

``there`` runs in a copy of the caller's context, so ``np.errstate`` applies
to it too.  The fork joins before it returns or raises: an exception from
``here`` wins over one from ``there``, which is then dropped, and an exception
from ``there`` alone is raised on the calling thread after the join.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ThreadPoolExecutor, wait

# the worker this context may fork to; None where there is none or it is taken
_WORKER: contextvars.ContextVar[ThreadPoolExecutor | None] = contextvars.ContextVar("worker", default=None)


@contextlib.contextmanager
def second_core():
    """Open one worker thread for the block and join it on the way out."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        token = _WORKER.set(pool)
        try:
            yield
        finally:
            _WORKER.reset(token)


def fork_join(here, there):
    """``(here(), there())``, with ``there`` on the worker when one is free."""
    pool = _WORKER.get()
    if pool is None:
        return here(), there()
    token = _WORKER.set(None)  # taken: forks in either branch run serially
    try:
        pending = pool.submit(contextvars.copy_context().run, there)
        try:
            first = here()
        finally:
            wait((pending,))
    finally:
        _WORKER.reset(token)
    return first, pending.result()
