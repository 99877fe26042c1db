"""Span tracing from outside the program: wrappers around each layer's functions.

:func:`install` replaces every function or method named in :data:`LAYERS`
with a wrapper that records one span per call: name, start, end, parent
span and API call id.  A module-level function is re-bound in *every*
``repro`` module that imported it by name (``make_verifier`` is bound in
``repro.core.columnar``, ``repro.core.search``, ``repro.core.batch`` and
``repro.distributed.sharded``), so each call site goes through the wrapper.
Spans stay in memory until :meth:`Tracer.dump` writes them as JSON.

A layer's self time is its span minus the part its child spans cover.
Execution is single-threaded in every workload, so spans nest strictly and
the child durations can simply be subtracted.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# (layer, "module:attribute path").  One layer may wrap several functions.
LAYERS = [
    ("learn.partition", "repro.learn.cascade:L2PPartitioner.partition"),
    ("partitioning.partition", "repro.partitioning.simple:MinTokenPartitioner.partition"),
    ("tgm.build", "repro.core.tgm:TokenGroupMatrix.__init__"),
    ("persistence.save", "repro.core.persistence:save_engine"),
    ("persistence.save", "repro.distributed.persistence:save_sharded"),
    ("api.open", "repro.api:load"),
    ("engine.intern", "repro.core.engine:as_query_record"),
    ("batch.bound", "repro.core.batch:batch_covered_counts"),
    ("batch.bound", "repro.core.search:query_group_bounds"),
    ("distributed.shard_bound", "repro.distributed.sharded:ShardedLES3.shard_bounds"),
    ("distributed.shard_bound", "repro.distributed.sharded:ShardedLES3._batch_shard_bound_rows"),
    ("search.visit", "repro.core.search:knn_visit_groups"),
    ("search.visit", "repro.core.search:range_collect_groups"),
    ("columnar.verify", "repro.core.columnar:make_verifier"),
    ("columnar.verify", "repro.core.columnar:GroupVerifier.__call__"),
    ("columnar.sync", "repro.core.columnar:ColumnarView.sync"),
    ("columnar.sync", "repro.storage.columnar_file:MappedColumnarView.sync"),
    ("search.merge", "repro.core.search:finalize_result"),
    ("search.merge", "repro.core.search:pad_zero_matches"),
    ("search.merge", "repro.distributed.sharded:ShardedLES3._gather_knn"),
    ("search.merge", "repro.distributed.sharded:ShardedLES3._gather_range"),
    ("updates.apply", "repro.core.engine:LES3.insert"),
    ("updates.apply", "repro.core.engine:LES3.remove"),
    ("updates.apply", "repro.distributed.sharded:ShardedLES3.insert"),
    ("updates.apply", "repro.distributed.sharded:ShardedLES3.remove"),
    ("delta.append", "repro.core.delta:DeltaSegment.log_insert"),
    ("delta.append", "repro.core.delta:DeltaSegment.log_remove"),
    ("delta.fsync", "os:fsync"),
    ("join.profile", "repro.core.join:group_join_profiles"),
    ("join.bound", "repro.core.join:_vocab_caps_self"),
    ("join.bound", "repro.core.join:_pair_bound_matrix"),
    ("join.verify", "repro.core.columnar:ColumnarView.pairwise_overlaps"),
    ("join.verify", "repro.core.similarity:Similarity.from_overlap_matrix"),
]

# Spans recorded outside any API call (set-up: build, save, open).
SETUP = None


class Tracer:
    """In-memory span store; ``call`` tags new spans with the API call id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start ns, end ns, parent span index or -1, call id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call: int | None = SETUP

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter_ns(), 0, parent, self.call])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, function):
        name_id = self.name_id(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)

        traced.__perfbench_original__ = function
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def _resolve(target: str):
    module_name, _, attribute = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, leaf = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS` and re-bind it everywhere.

    Classes are patched on the class itself, so every instance and every
    subclass that does not override the method goes through the wrapper.
    Module-level functions are replaced in each loaded ``repro`` module
    that holds a reference to the original (imports by name).
    """
    import repro  # noqa: F401  (loads the package's modules before scanning)

    for _, target in LAYERS:
        importlib.import_module(target.partition(":")[0])
    for layer, target in LAYERS:
        owner, leaf = _resolve(target)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        wrapped = tracer.wrap(layer, original)
        setattr(owner, leaf, wrapped)
        if isinstance(owner, type) or owner is os:
            continue
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapped)


def summarize(names: list[str], spans: list[list], calls: str) -> dict[str, dict]:
    """Per layer: ``count``, inclusive and self nanoseconds of the chosen spans.

    ``calls`` picks the spans: ``"setup"`` (outside any API call) or
    ``"timed"`` (inside timed calls, whose ids are non-negative; warm-up
    calls carry negative ids).  An fsync counts only inside a delta
    append, so the fsyncs of saves are not charged to the write path.
    """
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    append_id = names.index("delta.append") if "delta.append" in names else -1
    fsync_id = names.index("delta.fsync") if "delta.fsync" in names else -1
    totals: dict[str, dict] = {}
    for index, (name_id, start, end, parent, call) in enumerate(spans):
        if calls == "setup" and call is not SETUP:
            continue
        if calls == "timed" and (call is SETUP or call < 0):
            continue
        if name_id == fsync_id and not _has_ancestor(spans, parent, append_id):
            continue
        entry = totals.setdefault(names[name_id], {"count": 0, "incl_ns": 0, "self_ns": 0})
        entry["count"] += 1
        entry["incl_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[index]
    return totals


def _has_ancestor(spans: list[list], parent: int, name_id: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == name_id:
            return True
        parent = spans[parent][3]
    return False
