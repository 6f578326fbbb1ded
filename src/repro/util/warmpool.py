"""One warm worker pool per process, and inputs shipped to it once.

Both fan-outs of the library — trial batches
(:mod:`repro.experiments.parallel`) and shard passes
(:mod:`repro.sketch.driver`) — run on the pool this module keeps, and
read their bulky, task-invariant input from a :class:`SharedBlock`:

* **The pool** is a ``ProcessPoolExecutor`` over an explicit ``fork``
  context, forked lazily on the first fan-out and kept until exit, so
  repeated runs pay no process start.  At most one pool is alive: a call
  with a different worker count retires the old one first, so no pool's
  threads exist across a fork.  The pool is recreated when the process
  forked since it was made (``os.getpid()`` differs), after a
  ``BrokenProcessPool`` (the failing call raises it), and after
  :func:`retire_pool` — which the shard driver calls when a new
  algorithm kind is registered, since forked workers would not know it.
* **A block** holds one pickled input in a ``SharedMemory`` segment.
  :func:`owned_block` publishes it once per owner object and key: the
  cache is keyed on the owner through a weak reference (never ``id()``,
  which is reused after garbage collection), and a block's segment is
  unlinked through ``weakref.finalize`` when the block dies with its
  owner, when it is released, or at exit.
* **A task** carries only the block's :class:`BlockRef` plus what
  changes per task, and the parent's :func:`columnar_enabled` flag,
  which the worker applies around the task (a warm worker does not
  inherit a ``scalar_oracle()`` entered after the fork).  A worker
  attaches to a block on a miss, unpickles it once, and keeps the most
  recently used payload per task function warm across calls.

Shared-memory tracking (bpo-39959): attaching a segment registers it
with the ``multiprocessing`` resource tracker.  The parent starts the
tracker before forking, so workers share it; their registrations land
in the same set as the owner's, and the owner's unlink unregisters the
name once.  No segment is reported leaked at exit.
"""

from __future__ import annotations

import itertools
import os
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.util.vectorized import columnar_enabled, set_columnar_enabled

#: task(payload, work) -> result; a module-level function, pickled by name.
TaskFunction = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class BlockRef:
    """What a task carries of its block: the segment name and a serial.

    Segment names can recur once a segment is unlinked, so workers key
    their warm payloads on ``serial`` — ``(pid, counter)`` of the
    publishing process — rather than on the name.
    """

    name: str
    serial: Tuple[int, int]


_serials = itertools.count()


def _unlink(shm: SharedMemory, pid: int) -> None:
    # A forked child inherits its parent's blocks; only the publisher unlinks.
    if os.getpid() == pid:
        shm.unlink()


class SharedBlock:
    """One pickled input in a shared-memory segment.

    ``value`` is the parent-side object the bytes were made from (the
    driver keeps its shards there); ``release()`` unlinks the segment
    early, and it is unlinked anyway when the block is collected or at
    exit.
    """

    def __init__(self, value: Any, data: bytes):
        shm = SharedMemory(create=True, size=max(len(data), 1))
        shm.buf[: len(data)] = data
        shm.close()
        pid = os.getpid()
        self.value = value
        self.ref = BlockRef(shm.name, (pid, next(_serials)))
        self.release = weakref.finalize(self, _unlink, shm, pid)


_owned: "weakref.WeakKeyDictionary[Any, Dict[Hashable, SharedBlock]]" = (
    weakref.WeakKeyDictionary()
)


def owned_block(
    owner: Any, key: Hashable, build: Callable[[], Tuple[Any, bytes]]
) -> SharedBlock:
    """The block ``build()`` makes for ``owner`` under ``key``, made once.

    ``build`` returns ``(value, data)`` as :class:`SharedBlock` takes
    them.  The block lives as long as ``owner``: when the owner is
    collected its blocks are collected and their segments unlinked.
    """
    blocks = _owned.setdefault(owner, {})
    block = blocks.get(key)
    if block is None or block.ref.serial[0] != os.getpid():
        block = blocks[key] = SharedBlock(*build())
    return block


# -- the pool (parent side) -------------------------------------------------------


@dataclass
class _Pool:
    executor: ProcessPoolExecutor
    workers: int
    pid: int


_pool: Optional[_Pool] = None


def retire_pool() -> None:
    """Shut down this process's warm pool; the next fan-out forks afresh."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool.pid == os.getpid():
        pool.executor.shutdown()


def _warm_pool(workers: int) -> ProcessPoolExecutor:
    global _pool
    if _pool is not None and (_pool.workers != workers or _pool.pid != os.getpid()):
        retire_pool()
    if _pool is None:
        # Workers must share the parent's tracker (see the module docstring).
        resource_tracker.ensure_running()
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"))
        _pool = _Pool(executor, workers, os.getpid())
    return _pool.executor


def fan_out(
    workers: int, task: TaskFunction, block: SharedBlock, work: Sequence[Any]
) -> List[Any]:
    """``task(payload, item)`` for every item of ``work``, in order.

    Runs on the warm pool, where ``payload`` is ``block``'s unpickled
    input.  Every task is waited for even when one fails, so a block
    released right after the call is never attached late.
    """
    columnar = columnar_enabled()
    executor = _warm_pool(workers)
    try:
        futures = [
            executor.submit(_run_task, task, block.ref, columnar, item) for item in work
        ]
        wait(futures)
        return [future.result() for future in futures]
    except BrokenProcessPool:
        retire_pool()
        raise


# -- the workers --------------------------------------------------------------------

#: Per worker: task function -> (block serial, payload), one entry per function.
_warm: Dict[TaskFunction, Tuple[Tuple[int, int], Any]] = {}


def _load(ref: BlockRef) -> Any:
    shm = SharedMemory(name=ref.name)
    try:
        return pickle.loads(shm.buf)
    finally:
        shm.close()


def _run_task(task: TaskFunction, ref: BlockRef, columnar: bool, item: Any) -> Any:
    entry = _warm.get(task)
    if entry is None or entry[0] != ref.serial:
        _warm.pop(task, None)  # drop the old payload before loading the new one
        entry = _warm[task] = (ref.serial, _load(ref))
    previous = set_columnar_enabled(columnar)
    try:
        return task(entry[1], item)
    finally:
        set_columnar_enabled(previous)
