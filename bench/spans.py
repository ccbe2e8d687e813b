"""Span tracing from outside the program, by wrapping its public functions.

A ``Tracer`` replaces a function under the names its callers look it up by
(``knotsurgery.cli.count_homomorphisms``, ``knotsurgery.homcount.
count_homomorphisms``, ...) with a wrapper that records one span per call:
``[name, start, end, busy, parent, op, info]``.  ``busy`` is the time the
span itself was running; it equals ``end - start`` except for generators,
whose busy time is only the time spent inside ``next()``.  A span's self time
is its busy time minus its children's busy time.  Given the run's speed
meter, busy time leaves out the meter's ticks (see ``speed.py``).

Spans stay in memory.  Patches made before a process pool forks carry into
the workers; a wrapped pool task writes its spans to a per-process file that
the parent merges with ``collect_remote``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

NAME, START, END, BUSY, PARENT, OP, INFO = range(7)


class Tracer:
    def __init__(self, remote_dir: Path | None = None, meter=None) -> None:
        self.spans: list[list] = []
        self.meter = meter
        self.stack: list[int] = []
        self.op = None
        self.bytes_written = 0
        self.pools: list[tuple[float, int]] = []  # (wall seconds, max_workers)
        self.remote_dir = remote_dir
        self.remote_busy = 0.0  # busy time of merged worker tasks
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _set(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def patch(self, modules, original, name: str, info=None, kind: str = "call") -> None:
        """Wrap ``original`` under every name a module in ``modules`` binds it to.

        ``info(args, kwargs, result)`` returns the span's extra data.  ``kind``
        is "call", "iter" (a generator function) or "task" (a pool task).
        """
        make = {"call": self._wrap_call, "iter": self._wrap_iter, "task": self._wrap_task}
        self.replace(modules, original, make[kind](original, name, info))

    def replace(self, modules, original, replacement) -> None:
        """Bind ``replacement`` wherever a module in ``modules`` binds ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def count_writes(self, path_cls) -> None:
        """Count bytes passed to ``path_cls.write_text`` in ``bytes_written``."""
        original = path_cls.write_text

        def write_text(path, data, encoding=None, errors=None, newline=None):
            self.bytes_written += len(data.encode(encoding or "utf-8"))
            return original(path, data, encoding, errors, newline)

        self._set(path_cls, "write_text", write_text)

    def watch_pools(self, namespace) -> None:
        """Replace ``namespace.ProcessPoolExecutor`` by one that records its wall time."""
        pools = self.pools

        class TimedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._bench_started = time.perf_counter()
                self._bench_workers = max_workers or os.cpu_count() or 1
                super().__init__(max_workers, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                pools.append((time.perf_counter() - self._bench_started, self._bench_workers))

        self._set(namespace, "ProcessPoolExecutor", TimedPool)

    def restore(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, 0.0, parent, self.op, None])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[BUSY] = self._busy(span[START], span[END])
        self.stack.pop()

    def _busy(self, t0: float, t1: float) -> float:
        meter = self.meter
        if meter is None or not meter.ends or meter.ends[-1] <= t0:  # no tick since t0
            return t1 - t0
        return meter.scaled(t0, t1, at_reference=False)

    def _wrap_call(self, original, name: str, info):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if info is not None:
                self.spans[index][INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _wrap_iter(self, original, name: str, info):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, 0.0, parent, self.op, None])
            inner = original(*args, **kwargs)
            busy, yields = 0.0, 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += self._busy(t0, time.perf_counter())
                        break
                    busy += self._busy(t0, time.perf_counter())
                    yields += 1
                    yield item
            finally:
                inner.close()
                span = self.spans[index]
                span[END], span[BUSY] = time.perf_counter(), busy
                span[INFO] = (info(args, kwargs, None) if info else ()) + (yields,)

        return wrapper

    def _wrap_task(self, original, name: str, info):
        """A pool task: traced in place in this process, shipped home from a worker."""
        call = self._wrap_call(original, name, info)

        def task(*args, **kwargs):
            if os.getpid() == self._pid:
                return call(*args, **kwargs)
            self.spans, self.stack = [], []
            try:
                return call(*args, **kwargs)
            finally:
                path = self.remote_dir / f"worker-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(self.spans) + "\n")

        task.__module__ = original.__module__
        task.__qualname__ = original.__qualname__
        return task

    def collect_remote(self) -> None:
        """Merge spans that pool workers wrote; their roots get no parent."""
        for path in sorted(self.remote_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                offset = len(self.spans)
                for span in json.loads(line):
                    if span[PARENT] is not None:
                        span[PARENT] += offset
                    else:
                        self.remote_busy += span[BUSY]
                    self.spans.append(span)
            path.unlink()

    # ------------------------------------------------------------ summaries

    def self_times(self) -> list[float]:
        own = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[BUSY]
        return own

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = dict(zip(("name", "start", "end", "busy", "parent", "op", "info"), span))
                fh.write(json.dumps(record, default=str) + "\n")
