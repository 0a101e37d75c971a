"""Span tracer for the mmspectral public API.

``Tracer.install`` wraps every public function of the package in every
module namespace that binds it (``train.sample_batch`` and
``experiments.sample_batch`` both lead to one wrapper), plus the
``Batch`` constructor. Each call records one span: id, parent span id,
name, start and end. Spans stay in memory and are written out by
``dump``; a layer's self time is its span's duration minus the time its
child spans cover.

Worker processes forked by the experiment fan-out inherit the wrappers.
An after-fork hook clears the copied spans in each worker and registers
a finalizer that dumps the worker's own spans when it exits, so
``collect`` sees the work of every process.

Probes check a sample of calls against the benchmark's own oracles. The
sample is every ``every``-th call counted from the latest entry into
``train.train_sscl``, so the number of sampled calls does not depend on
how the fan-out splits work between processes.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter
from multiprocessing import util as mp_util
from pathlib import Path

PACKAGE = "mmspectral"
PROBE_SCOPE = "train.train_sscl"


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _matrix_digest(args, kwargs):
    norm = args[0] if args else kwargs["norm"]
    m = norm.matrix
    return hashlib.blake2b(repr(m.shape).encode() + m.tobytes(), digest_size=16).hexdigest()


def _anchor_key(args, kwargs):
    index = args[0] if args else kwargs["index"]
    teacher = args[2] if len(args) > 2 else kwargs["teacher"]
    return teacher, int(index)


#: span name -> identity of the call's input, for the ratio of calls per
#: distinct input. A teacher anchor is (teacher table object, sample index).
DISTINCT = {
    "spectral.decompose": _matrix_digest,
    "train.nearest_neighbor_positive": _anchor_key,
}


class Tracer:
    """Wraps the package's public functions and records a span per call.

    ``probes`` maps a span name to ``(every, check)``; ``check(args,
    kwargs, result)`` returns True when the sampled call's result agrees
    with the benchmark's oracle.
    """

    def __init__(self, out_dir, probes=None):
        self.out_dir = Path(out_dir)
        self.probes = dict(probes or {})
        self._patched = []
        self.names = []
        self._name_ids = {}
        self._reset()

    def _reset(self):
        self.span_id, self.parent_id = array("q"), array("q")
        self.name_id, self.start, self.end = array("i"), array("d"), array("d")
        self.calls, self.self_s = Counter(), Counter()
        self.edges = Counter()
        self.distinct = {name: set() for name in DISTINCT}
        self._teachers = {}
        self.probe_attempted, self.probe_failed = Counter(), Counter()
        self._probe_seen = Counter()
        self._stack = []
        self._next_id = 0
        self.round = 0

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        key_of = DISTINCT.get(name)
        probe = self.probes.get(name)
        scope = name == PROBE_SCOPE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            if scope:
                tracer._probe_seen.clear()
            frame = [sid, nid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                parent = stack[-1] if stack else None
                tracer.span_id.append(sid)
                tracer.parent_id.append(parent[0] if parent else -1)
                tracer.name_id.append(nid)
                tracer.start.append(t0)
                tracer.end.append(t1)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    tracer.edges[(tracer.names[parent[1]], name)] += 1
            if key_of is not None:
                tracer._add_distinct(name, key_of(args, kwargs))
            if probe is not None:
                tracer._probe(name, probe, args, kwargs, result)
            return result

        return traced

    def _add_distinct(self, name, key):
        if isinstance(key, tuple):
            teacher, index = key
            self._teachers.setdefault(id(teacher), teacher)  # pins the id
            key = f"{os.getpid()}:{id(teacher)}:{index}"
        # inputs repeat from round to round; count them once per round
        self.distinct[name].add(f"{self.round}:{key}")

    def _probe(self, name, probe, args, kwargs, result):
        every, check = probe
        seen = self._probe_seen[name]
        self._probe_seen[name] = seen + 1
        if seen % every:
            return
        self.probe_attempted[name] += 1
        if not check(args, kwargs, result):
            self.probe_failed[name] += 1

    def install(self):
        """Wrap every public package function wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{_short(obj.__module__)}.{obj.__name__}", obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        batch = sys.modules[PACKAGE + ".losses"].Batch
        original = batch.__post_init__
        self._patched.append((batch, "__post_init__", original))
        batch.__post_init__ = self._wrap("losses.Batch", original)
        mp_util.register_after_fork(self, Tracer._in_worker)

    def uninstall(self):
        """Put every original function back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _in_worker(self):
        if not self._patched:
            return
        current = self.round
        self._reset()
        self.round = current
        mp_util.Finalize(self, self.dump, exitpriority=10)

    # -- output ------------------------------------------------------------

    def dump(self):
        """Write this process's spans and aggregates to the trace directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        with open(self.out_dir / f"spans-{pid}.bin", "wb") as fh:
            for arr in (self.span_id, self.parent_id, self.name_id, self.start, self.end):
                arr.tofile(fh)
        summary = {
            "pid": pid,
            "names": self.names,
            "spans": len(self.span_id),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            "probe_attempted": dict(self.probe_attempted),
            "probe_failed": dict(self.probe_failed),
        }
        (self.out_dir / f"summary-{pid}.json").write_text(json.dumps(summary))


def collect(trace_dir):
    """Merge the summaries every traced process wrote."""
    total = {"calls": Counter(), "self_s": Counter(), "edges": Counter(),
             "distinct": {k: set() for k in DISTINCT},
             "probe_attempted": Counter(), "probe_failed": Counter(), "processes": 0}
    for path in sorted(Path(trace_dir).glob("summary-*.json")):
        part = json.loads(path.read_text())
        total["processes"] += 1
        for key in ("calls", "self_s", "probe_attempted", "probe_failed"):
            total[key].update(part[key])
        for a, b, n in part["edges"]:
            total["edges"][(a, b)] += n
        for key, values in part["distinct"].items():
            total["distinct"][key].update(values)
    return total


def read_spans(path):
    """Spans of one process as (span_id, parent_id, name_id, start, end)
    arrays; names come from the matching summary file."""
    raw = Path(path).read_bytes()
    n = len(raw) // (8 + 8 + 4 + 8 + 8)
    out, offset = [], 0
    for code, size in (("q", 8), ("q", 8), ("i", 4), ("d", 8), ("d", 8)):
        arr = array(code)
        arr.frombytes(raw[offset:offset + n * size])
        out.append(arr)
        offset += n * size
    return tuple(out)
