"""Wall-clock spans around the program's layers, installed from outside.

The traced run wraps public functions and methods of the ``repro`` modules
with :class:`Tracer` wrappers; the program itself carries no tracing of its
own here.  Two kinds of wrapper exist:

* **timed** -- records a span (name, start, end, parent span) and adds the
  span's *self* time (its duration minus the wrapped calls made inside it)
  to its name's total, so the self times of all names plus the time no span
  covers add up to the measured wall time;
* **counted** -- only counts calls.  Used for the hottest leaves
  (``sha256``, ``partition_of``, ...; up to a million calls a run), where
  two clock reads per call would cost more than the call.

Module-level functions are mostly imported by name (``from
repro.crypto.hashing import sha256``), so a wrapper replaces every binding
of the function object in every loaded ``repro`` module -- the places its
callers look it up -- not only the defining module's.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.bft.engine import PbftEngine
from repro.core import readonly
from repro.core.occ import ConflictChecker
from repro.core.replica import PartitionReplica
from repro.crypto import hashing, merkle
from repro.crypto.archive import HistoricalTreeView
from repro.crypto.merkle import MerkleStore, MerkleTree
from repro.crypto.signatures import KeyRegistry
from repro.edge.cache import EdgeCache
from repro.simnet.network import Network
from repro.simnet.node import SimNode
from repro.simnet.simulator import Simulator
from repro.storage.mvstore import MultiVersionStore
from repro.storage.partitioner import HashPartitioner

#: (span name, owner, attribute) of every timed wrapper.  ``owner`` is a
#: class (the method is replaced on it) or a module (the function is
#: replaced wherever it is bound).
TIMED: Tuple[Tuple[str, object, str], ...] = (
    ("simnet.loop", Simulator, "run"),
    ("simnet.send", Network, "send"),
    ("simnet.receive", SimNode, "receive"),
    ("core.handler", SimNode, "_dispatch"),
    ("bft.handle", PbftEngine, "handle"),
    ("core.validate", PartitionReplica, "validate_proposal"),
    ("core.deliver", PartitionReplica, "deliver"),
    ("core.occ_check", ConflictChecker, "check"),
    ("core.ro_verify", readonly, "verify_snapshot"),
    ("crypto.merkle_build", MerkleTree, "__init__"),
    ("crypto.merkle_preview", MerkleStore, "preview_root"),
    ("crypto.merkle_apply", MerkleStore, "apply"),
    ("crypto.merkle_prove", MerkleTree, "prove"),
    ("crypto.merkle_prove", HistoricalTreeView, "prove"),
    ("crypto.sig_verify", KeyRegistry, "verify"),
    ("crypto.sig_verify", KeyRegistry, "verify_quorum"),
    ("storage.mvstore_build", MultiVersionStore, "__init__"),
    ("storage.mvstore_apply", MultiVersionStore, "apply"),
    ("edge.cache", EdgeCache, "lookup"),
    ("edge.cache", EdgeCache, "admit"),
    ("recovery.install", PartitionReplica, "install_snapshot"),
)

#: (counter name, owner, attribute) of every counted wrapper.
COUNTED: Tuple[Tuple[str, object, str], ...] = (
    ("crypto.sha256", hashing, "sha256"),
    ("crypto.encode", hashing, "stable_encode"),
    ("crypto.encode", hashing, "digest_of"),
    ("crypto.proof_verify", merkle, "verify_proof"),
    ("storage.partition_of", HashPartitioner, "partition_of"),
)


class Tracer:
    """In-memory spans and per-name self time / call counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        # One entry per span, in start order; parent is a span index or -1.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._child_s: List[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._index[name]

    def timed(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack, child_s, self_s, calls = self._stack, self._child_s, self.self_s, self.calls
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            span = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(span)
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name_id] += duration - child_s.pop()
                calls[name_id] += 1
                if child_s:
                    child_s[-1] += duration
                span_start[span] = start
                span_end[span] = end

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name_id] += 1
            return fn(*args, **kwargs)

        return wrapper

    def covered_s(self, start: float, end: float) -> float:
        """Time within [start, end] covered by top-level spans."""
        covered = 0.0
        for span, parent in enumerate(self.span_parent):
            if parent == -1:
                lo = max(start, self.span_start[span])
                hi = min(end, self.span_end[span])
                if hi > lo:
                    covered += hi - lo
        return covered

    def self_time(self, name: str) -> float:
        return self.self_s[self._index[name]] if name in self._index else 0.0

    def count(self, name: str) -> int:
        return self.calls[self._index[name]] if name in self._index else 0

    def write_spans(self, path: str) -> int:
        """Write every span as ``name start end parent`` lines (gzip TSV)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for span, name_id in enumerate(self.span_name):
                out.write(
                    f"{span}\t{names[name_id]}\t{self.span_start[span]:.9f}\t"
                    f"{self.span_end[span]:.9f}\t{self.span_parent[span]}\n"
                )
        return len(self.span_name)


def _bindings(owner: object, attribute: str) -> List[Tuple[object, str]]:
    """Every place callers look ``owner.attribute`` up."""
    if isinstance(owner, type):
        return [(owner, attribute)]
    target = getattr(owner, attribute)
    places = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is target:
                places.append((module, name))
    return places


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every TIMED and COUNTED target for the duration of the block."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for kind, table in (("timed", TIMED), ("counted", COUNTED)):
            for name, owner, attribute in table:
                original = getattr(owner, attribute)
                wrapped = getattr(tracer, kind)(name, original)
                for place, bound_name in _bindings(owner, attribute):
                    saved.append((place, bound_name, vars(place)[bound_name]))
                    setattr(place, bound_name, wrapped)
        yield tracer
    finally:
        for place, bound_name, original in reversed(saved):
            setattr(place, bound_name, original)
