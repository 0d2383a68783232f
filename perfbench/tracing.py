"""Per-layer self time and call counts, recorded from outside the library.

Two instruments, used in separate episodes so neither distorts the other:

* :class:`LayerSampler` measures self time.  A wall-clock interval timer
  (``SIGALRM``) interrupts the client every :data:`SAMPLE_INTERVAL_S`; the
  handler walks the interrupted stack to the innermost frame that belongs to
  a layer's ``repro`` module and charges that layer one interval.  Frames of
  ``repro`` modules outside every layer (``concurrency``, ``cost``, ...) and
  of the standard library are charged to the layer that called them, so the
  coordinator's wait for process workers (blocked in a pipe read under
  ``ProcessBackend.dispatch``) is ``shard.parallel`` time.  A stack with no
  layer frame is the client's own time.  The handler runs a few thousand
  times per episode, so the sampled episode runs at nearly untraced speed.
  Samples are counted, not timed: ``layers + client = samples x interval``
  matches the episode's wall time only while the timer's ticks all arrive,
  which is what the benchmark's coverage check tests.

* :class:`LayerCounter` counts boundary crossings.  It wraps every function
  and method defined in the layers' modules (plus each ``__init__``) and
  restores the originals on :meth:`LayerCounter.uninstall`; nothing under
  ``src/`` changes.  A call that stays inside its own layer passes straight
  through, so ``<layer>.calls`` counts entries from another layer (or from
  the client), not every internal call.  Generators are counted per resume.
  Geometry and buffer calls number in the millions, so the counter keeps
  aggregated counts only, never one record per call.  Probes beside the
  wrappers count events the call counts cannot tell apart (shard visits per
  query, commands per worker dispatch, WAL fsyncs and their time).

Only the calling process is instrumented.  Under the process backend the
shard workers are forked before either instrument is installed.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import signal
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> the ``repro`` modules (or packages) it covers.  Modules not
#: listed (``concurrency``, ``cost``, ``workload``, ``bench``) are charged
#: to whichever layer calls them.  ``repro.core`` is the facade behind the
#: public API, so it belongs to ``api``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "api": ("repro.api", "repro.core"),
    "shard": (
        "repro.shard.index",
        "repro.shard.partitioner",
        "repro.shard.rebalance",
        "repro.shard.adaptive",
    ),
    "shard.parallel": ("repro.shard.parallel",),
    "update": (
        "repro.update.base",
        "repro.update.factory",
        "repro.update.generalized",
        "repro.update.localized",
        "repro.update.naive",
        "repro.update.params",
        "repro.update.topdown",
    ),
    "update.batch": ("repro.update.batch",),
    "rtree": ("repro.rtree",),
    "secondary": ("repro.secondary",),
    "summary": ("repro.summary",),
    "storage": ("repro.storage",),
    "geometry": ("repro.geometry",),
    "durability": ("repro.durability",),
}

#: Bucket for sampled time with no layer on the stack: the client's own.
CLIENT = "client"
#: Seconds between two samples of :class:`LayerSampler`.
SAMPLE_INTERVAL_S = 0.0005


def layer_of_module(name: str) -> Optional[str]:
    """The layer a module belongs to, or ``None`` (longest root wins)."""
    best: Optional[str] = None
    best_length = -1
    for layer, roots in LAYERS.items():
        for root in roots:
            if (name == root or name.startswith(root + ".")) and len(root) > best_length:
                best, best_length = layer, len(root)
    return best


class LayerSampler:
    """Samples the stack on a wall-clock timer and tallies it by layer."""

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: Dict[str, int] = dict.fromkeys([CLIENT, *LAYERS], 0)
        self._layer_of: Dict[str, Optional[str]] = {}
        self._previous: Any = None

    def _on_tick(self, signum: int, frame: Any) -> None:
        layer_of = self._layer_of
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name not in layer_of:
                layer_of[name] = layer_of_module(name)
            layer = layer_of[name]
            if layer is not None:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples[CLIENT] += 1

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self) -> Dict[str, float]:
        """Sampled seconds per layer (and for the client)."""
        return {name: count * self.interval_s for name, count in self.samples.items()}


_OFF = -1


class LayerCounter:
    """Installs layer wrappers that count crossings, plus event probes."""

    def __init__(self) -> None:
        self.names: List[str] = [CLIENT, *LAYERS]
        self.calls: List[int] = [0] * len(self.names)
        #: Event counters kept by the probes (see :meth:`_install_probes`).
        self.events: Dict[str, float] = {
            "shard.query_visits": 0,
            "shard.parallel.dispatches": 0,
            "shard.parallel.commands": 0,
            "durability.fsyncs": 0,
            "durability.sync_s": 0.0,
        }
        self.layer = _OFF
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- arming ------------------------------------------------------------
    def start(self) -> None:
        """Arm the counter at the start of one client call."""
        self.layer = 0

    def stop(self) -> None:
        """Disarm it at the end of the call."""
        self.layer = _OFF

    def snapshot(self) -> Dict[str, Any]:
        """A copy of every counter."""
        return {"calls": dict(zip(self.names, self.calls)), "events": dict(self.events)}

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, index: int, fn: Callable) -> Callable:
        counter, stack, calls = self, self._stack, self.calls

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    current = counter.layer
                    if current == index or current == _OFF:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    else:
                        stack.append(current)
                        counter.layer = index
                        calls[index] += 1
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            counter.layer = stack.pop()
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = counter.layer
            if current == index or current == _OFF:
                return fn(*args, **kwargs)
            stack.append(current)
            counter.layer = index
            calls[index] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counter.layer = stack.pop()

        return wrapper

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer's functions and methods, then add the probes."""
        wrapped: Dict[int, Callable] = {}
        for module, index in _layer_modules(self.names):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapper = self._wrap(index, value)
                    wrapped[id(value)] = wrapper
                    self._set(module, name, wrapper)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (enum.Enum, BaseException))
                ):
                    self._wrap_class(index, value)
        # Rebind ``from module import function`` copies held by any repro
        # module, so callers reach the wrapper rather than the original.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)])
        self._install_probes()

    def _wrap_class(self, index: int, cls: type) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("__") and name != "__init__":
                continue
            if inspect.isfunction(value):
                self._set(cls, name, self._wrap(index, value))
            elif isinstance(value, (staticmethod, classmethod)):
                self._set(cls, name, type(value)(self._wrap(index, value.__func__)))
            elif isinstance(value, property) and inspect.isfunction(value.fget):
                self._set(
                    cls,
                    name,
                    property(self._wrap(index, value.fget), value.fset, value.fdel, value.__doc__),
                )

    def _install_probes(self) -> None:
        """Count events the layers' call counts cannot tell apart.

        Each probe sits outside the layer wrapper, so it sees every call,
        including those made from inside its own layer.
        """
        from repro.durability.wal import WriteAheadLog
        from repro.shard.index import ShardedIndex
        from repro.shard.parallel import ProcessBackend

        events = self.events
        record_query = ShardedIndex._record_query

        def counted_record_query(sharded, shard_id, count=1):
            events["shard.query_visits"] += count
            return record_query(sharded, shard_id, count)

        dispatch = ProcessBackend.dispatch

        def counted_dispatch(backend, per_shard):
            events["shard.parallel.dispatches"] += 1
            events["shard.parallel.commands"] += sum(len(c) for c in per_shard.values())
            return dispatch(backend, per_shard)

        sync = WriteAheadLog.sync

        def timed_sync(log):
            start = time.perf_counter()
            try:
                return sync(log)
            finally:
                events["durability.fsyncs"] += 1
                events["durability.sync_s"] += time.perf_counter() - start

        self._set(ShardedIndex, "_record_query", counted_record_query)
        self._set(ProcessBackend, "dispatch", counted_dispatch)
        self._set(WriteAheadLog, "sync", timed_sync)

    def uninstall(self) -> None:
        """Put every original back, newest replacement first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self.layer = _OFF


def _layer_modules(names: List[str]):
    """``(module, layer index)`` for every importable module of every layer."""
    for index, layer in enumerate(names):
        if layer == CLIENT:
            continue
        for root in LAYERS[layer]:
            module = importlib.import_module(root)
            yield module, index
            if hasattr(module, "__path__"):
                for info in pkgutil.walk_packages(module.__path__, root + "."):
                    yield importlib.import_module(info.name), index


def import_layers() -> None:
    """Import every module of every layer."""
    for _ in _layer_modules([CLIENT, *LAYERS]):
        pass
