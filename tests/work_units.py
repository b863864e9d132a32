"""Run a call the way engine grid cells run it: as an executor work unit."""

from functools import partial

from repro.executors import resolve_executor


def _call(call):
    return call()


def run_on(executor, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` computed as a work unit of *executor*.

    Engine grid cells ground and solve inside pool threads or worker
    processes, and a grounding computed there must be bit-identical to
    one computed on the calling thread.  The call is mapped twice
    because a pool runs a one-item map inline; the first result is
    returned (pickled back, from a process pool).
    """
    call = partial(fn, *args, **kwargs)
    first, _ = resolve_executor(executor).map(_call, [call, call])
    return first
