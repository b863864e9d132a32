"""Run a call the way engine grid cells run it: in a worker process."""

from concurrent.futures import ProcessPoolExecutor
from functools import partial


def _call(call):
    return call()


def run_on(executor, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` computed where *executor* runs grid cells.

    ``None``/``"serial"`` calls it on the calling thread; ``"process:2"``
    maps the one call on a plain two-worker process pool, the way a
    process grid runs its cells, and returns the result pickled back.
    A grounding computed in a worker must be bit-identical to one
    computed on the calling thread.
    """
    call = partial(fn, *args, **kwargs)
    if executor in (None, "serial"):
        return call()
    assert executor == "process:2", executor
    with ProcessPoolExecutor(2) as pool:
        (result,) = pool.map(_call, [call])
    return result
