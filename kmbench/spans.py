"""In-memory span tracing of the kmboard modules, installed from outside.

A :class:`Tracer` replaces every public function of the traced modules
with a wrapper in each ``kmboard.*`` namespace that binds it, plus
``TimePoset.from_relations`` and the seven ``cli.CHECKS`` entries.  Each
call records one span (name, start, end, parent span, op id); a
generator records one span whose busy time is the sum of its resumes and
whose parent is the span active at its first resume.  Spans live in flat
arrays until :meth:`Tracer.write` and :meth:`Tracer.aggregate` read them.

Everything runs on one thread, so child spans never overlap and a span's
self time is its busy time minus the busy time of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("pairs", "trees", "moves", "canonical", "domains", "duhamel", "counting", "cli")

_RETURNS_COLLECTION = (list, set, frozenset)


class Tracer:
    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.hits: Counter = Counter()
        self.items: Counter = Counter()
        self.masks: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._restore: list[tuple] = []

    @property
    def full(self) -> bool:
        return len(self.span_name) >= self.max_spans

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, parent: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        return sid

    def _wrap_function(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        stack = self._stack
        counts_masks = name == "domains.count_linear_extensions"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(nid, stack[-1])
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_start[sid] = t0
                tracer.span_end[sid] = t1
                tracer.span_busy[sid] = t1 - t0
            if result is True:
                tracer.hits[nid] += 1
            elif isinstance(result, _RETURNS_COLLECTION):
                tracer.items[nid] += len(result)
            if counts_masks:
                # the downset DP visits every subset of the poset's elements
                tracer.masks[nid] += 1 << len(args[0].elements)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = -1
            try:
                while True:
                    if sid < 0:
                        sid = tracer._open(nid, stack[-1])
                        tracer.span_start[sid] = perf_counter()
                    stack.append(sid)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        tracer.span_end[sid] = t1
                        tracer.span_busy[sid] += t1 - t0
                    tracer.items[nid] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced kmboard module."""
        namespaces = [
            mod for key, mod in sys.modules.items() if key == "kmboard" or key.startswith("kmboard.")
        ]
        for short in MODULES:
            module = sys.modules[f"kmboard.{short}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, key, traced)
        poset = sys.modules["kmboard.domains"].TimePoset
        original = poset.__dict__["from_relations"]
        self._replace(
            poset, "from_relations", classmethod(self.wrap("domains.from_relations", original.__func__))
        )
        checks = sys.modules["kmboard.cli"].CHECKS
        for check, fn in list(checks.items()):
            self._restore.append((checks, check, fn, True))
            checks[check] = self.wrap(f"cli.verify.{check}", fn)

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._restore):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- derived figures ------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per name: calls, busy, self time, hits, items and masks, summed over spans."""
        n = len(self.span_name)
        child_busy = [0.0] * n
        parent = self.span_parent
        busy = self.span_busy
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child_busy[p] += busy[sid]
        calls = [0] * len(self.names)
        busy_sum = [0.0] * len(self.names)
        self_sum = [0.0] * len(self.names)
        for sid in range(n):
            nid = self.span_name[sid]
            calls[nid] += 1
            busy_sum[nid] += busy[sid]
            self_sum[nid] += busy[sid] - child_busy[sid]
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": calls[nid],
                "busy_s": busy_sum[nid],
                "self_s": self_sum[nid],
                "hits": self.hits[nid],
                "items": self.items[nid],
                "masks_computed": self.masks[nid],
            }
        return out

    def write(self, path) -> None:
        """Every span as one tab-separated line: id name start end busy parent op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tbusy\tparent\top\n")
            names = self.names
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{names[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                    f"{self.span_end[sid]:.9f}\t{self.span_busy[sid]:.9f}\t"
                    f"{self.span_parent[sid]}\t{self.span_op[sid]}\n"
                )
