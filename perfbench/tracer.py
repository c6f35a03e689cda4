"""Outside-in span tracing of the service's layers.

The tracer never touches the program's own observability (``repro.obs``).
It replaces the public entry points of each layer, on the classes and
modules the live service uses, with thin wrappers that time the call and
call straight through.  Class attributes are patched, not instance
attributes, so dunder methods and calls through ``super()`` are seen too;
:meth:`Tracer.install` runs after set-up and before the first timed
request, and :meth:`Tracer.uninstall` restores every original.

Each span (name, start, end, parent, request) is kept in memory in flat
arrays and can be written out with :meth:`Tracer.save`.  A span's self
time is its duration minus the durations of its direct children, and a
layer's self time is the sum over its spans, so the layers partition the
wall time of the requests they ran under.  Spans are recorded on the
thread that installed the tracer only: that partition holds only while
every layer runs on the client's thread, as under the serial executor.
Calls made on other threads pass through untimed and are counted in
:attr:`Tracer.foreign_calls`, so a run can refuse a split they would
falsify.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: The layers, outermost first.  The client's own ``request`` span is
#: the root of each request and is not a layer: its self time is the
#: part of a request no layer span covers.
LAYERS = (
    "service",
    "epochs",
    "route",
    "executor",
    "tables",
    "hashing",
    "disk",
    "cache",
    "backend",
    "journal",
)
REQUEST = "request"

#: Dunder methods that public code reaches through operators and
#: builtins (``bid in disk``, ``len(pool)``).
_DUNDERS = ("__contains__", "__len__")


def public_methods(cls: type) -> list[tuple[type, str]]:
    """``(defining class, name)`` of every public plain method of ``cls``.

    Walks the MRO so inherited methods are patched where they are
    defined; classes outside the program's package are skipped.
    """
    out = []
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        for name, value in vars(klass).items():
            if (not name.startswith("_") or name in _DUNDERS) and inspect.isfunction(
                value
            ):
                out.append((klass, name))
    return out


def defining_class(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` holds ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self, requests: int) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_layer = array("b")
        self._span_parent = array("i")
        self._span_request = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        #: Open spans, innermost last: their ids and the summed
        #: durations of their finished children.
        self._open = array("i")
        self._child = array("d")
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        layers = len(LAYERS) + 1
        #: Self seconds per (request, layer); the last column is the
        #: request span's own (unattributed) time, and the last row
        #: collects calls made outside any request.
        self.request_self = [[0.0] * layers for _ in range(requests + 1)]
        #: Index of the request in flight, set by the client.
        self.request = requests
        self.calls = [0] * layers
        #: Calls per layer made on another thread (not timed).
        self.foreign_calls = [0] * layers
        #: Table entry points per op kind: inclusive seconds, charged
        #: I/O and keys.
        self.table_s = dict.fromkeys(("insert", "lookup", "delete"), 0.0)
        self.table_io = dict.fromkeys(("insert", "lookup", "delete"), 0)
        self.table_keys = dict.fromkeys(("insert", "lookup", "delete"), 0)

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, layer: str, name: str, fn, *, table_kind: str | None = None):
        """``fn`` wrapped so each call records one span of ``layer``."""
        lid = LAYERS.index(layer) if layer != REQUEST else len(LAYERS)
        nid = self._name_id(name)
        tracer = self
        open_ids, child = self._open, self._child
        names, layers, parents = self._span_name, self._span_layer, self._span_parent
        requests, starts, ends = self._span_request, self._span_start, self._span_end
        rows, calls, thread = self.request_self, self.calls, self._thread
        foreign = self.foreign_calls
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != thread:
                foreign[lid] += 1
                return fn(*args, **kwargs)
            if table_kind is not None:
                stats = args[0].ctx.stats
                io0 = stats.reads + stats.writes
            sid = len(starts)
            request = tracer.request
            names.append(nid)
            layers.append(lid)
            parents.append(open_ids[-1] if open_ids else -1)
            requests.append(request)
            ends.append(0.0)
            open_ids.append(sid)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                open_ids.pop()
                own = dur - child.pop()
                if child:
                    child[-1] += dur
                ends[sid] = t1
                rows[request][lid] += own
                calls[lid] += 1
                if table_kind is not None:
                    tracer.table_s[table_kind] += dur
                    tracer.table_io[table_kind] += stats.reads + stats.writes - io0
                    tracer.table_keys[table_kind] += len(args[1])

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, **kw) -> None:
        """Replace ``owner.attr`` (a class or module) with a traced wrapper."""
        original = vars(owner)[attr]
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(layer, label, original, **kw))

    def patch_methods(self, cls: type, names, layer: str) -> None:
        """Trace ``names`` (or, for ``None``, every public method) of ``cls``."""
        seen = {(o, a) for o, a, _ in self._patches}
        if names is None:
            targets = public_methods(cls)
        else:
            targets = [(defining_class(cls, n), n) for n in names]
        for owner, attr in targets:
            if (owner, attr) not in seen:
                seen.add((owner, attr))
                self.patch(owner, attr, layer)

    def install(self, service) -> None:
        """Trace every layer's entry points on the classes ``service`` uses.

        Call after set-up and before the first timed request.  The
        buffer-pool and journal classes are patched even when the
        service has none, so their predicted zeros are measured.
        """
        import repro.service.service as service_module
        from repro.em.cache import BufferPool
        from repro.service.journal import EpochJournal

        tables = service.shard_tables()
        disks = [table.ctx.disk for table in tables]
        self.patch_methods(type(service), ["run"], "service")
        self.patch(service_module, "build_epochs", "epochs")
        self.patch(service_module, "partition_positions", "route")
        self.patch_methods(type(service.directory), ["slots_of"], "route")
        self.patch_methods(type(service.executor), ["run"], "executor")
        for cls in {type(table) for table in tables}:
            for kind in ("insert", "lookup", "delete"):
                attr = f"{kind}_batch"
                self.patch(defining_class(cls, attr), attr, "tables", table_kind=kind)
        hashes = {type(service.router)} | {
            type(table.h) for table in tables if hasattr(table, "h")
        }
        for cls in hashes:
            self.patch_methods(cls, ["hash", "hash_array"], "hashing")
        for cls in {type(disk) for disk in disks}:
            self.patch_methods(cls, None, "disk")
        pools = {type(d.cache) for d in disks if d.cache is not None}
        for cls in pools | {BufferPool}:
            self.patch_methods(cls, None, "cache")
        for cls in {type(disk.backend) for disk in disks}:
            self.patch_methods(cls, None, "backend")
        journals = {EpochJournal}
        if service.journal is not None:
            journals.add(type(service.journal))
        for cls in journals:
            self.patch_methods(cls, ["append_epoch", "commit"], "journal")
        self.patch(os, "fsync", "journal")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every recorded span as arrays (views: read after tracing ends)."""
        return {
            "name": np.frombuffer(self._span_name, dtype=np.int32),
            "layer": np.frombuffer(self._span_layer, dtype=np.int8),
            "parent": np.frombuffer(self._span_parent, dtype=np.int32),
            "request": np.frombuffer(self._span_request, dtype=np.int32),
            "start": np.frombuffer(self._span_start, dtype=np.float64),
            "end": np.frombuffer(self._span_end, dtype=np.float64),
        }

    def inclusive_seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        s = self.spans()
        mask = s["name"] == self._name_ids.get(name, -1)
        return float((s["end"][mask] - s["start"][mask]).sum())

    def count(self, name: str) -> int:
        """Number of spans called ``name``."""
        return int(np.count_nonzero(self.spans()["name"] == self._name_ids.get(name, -1)))

    def save(self, path: Path) -> None:
        """Write every span, the name table and the layer table (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez(
            tmp,
            names=np.asarray(self.names),
            layers=np.asarray(LAYERS + (REQUEST,)),
            **self.spans(),
        )
        os.replace(tmp, path)
