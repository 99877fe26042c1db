"""One stage of a benchmark run, in its own process (started by ``run.py``).

``build``
    Generate the workload from the seed, write the inputs for the other
    stages, then build the index (timed) and save it (timed).
``loop``
    Open the saved index through ``repro.load`` (timed from the process's
    start), warm up, then send the plan's calls through
    ``repro.api.execute_batch`` one at a time, timing each.  Peak RSS is
    this process's, so it covers opening and querying the index but not
    the data generation or the build.
``reopen``
    Durability check: a fresh process opens the directory with
    ``repro.load``'s default load and reports what it finds.

Each stage writes its results as JSON into the run directory.  With
``--trace`` the stage installs the span wrappers of :mod:`tracer` first.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload))


def _maybe_trace(enabled: bool) -> tracing.Tracer | None:
    if not enabled:
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _finish_trace(tracer: tracing.Tracer | None, run_dir: Path, stage: str) -> dict:
    if tracer is None:
        return {}
    tracer.dump(run_dir / f"trace-{stage}.json")
    return {
        "setup": tracing.summarize(tracer.names, tracer.spans, "setup"),
        "timed": tracing.summarize(tracer.names, tracer.spans, "timed"),
    }


# -- build ----------------------------------------------------------------------


def build(args: argparse.Namespace) -> None:
    import numpy as np

    config = workloads.params(args.workload, args.small)
    token_lists, calls = workloads.generate(args.workload, config, args.seed, args.seconds)
    sizes = np.array([len(tokens) for tokens in token_lists], dtype=np.int64)
    np.savez(
        args.dir / "data.npz",
        indptr=np.concatenate([[0], np.cumsum(sizes)]),
        tokens=np.fromiter(
            (token for tokens in token_lists for token in tokens),
            dtype=np.int64, count=int(sizes.sum()),
        ),
    )
    _write_json(
        args.dir / "plan.json",
        {"calls": calls, "warmup": config["warmup_calls"], "base_size": len(token_lists)},
    )

    # Wrappers first: the names imported below must be the traced ones.
    tracer = _maybe_trace(args.trace)
    from repro.core import LES3, Dataset, save_engine
    from repro.distributed import ShardedLES3, save_sharded
    from repro.learn.cascade import L2PPartitioner
    from repro.partitioning import MinTokenPartitioner

    dataset = Dataset.from_token_lists([[str(t) for t in tokens] for tokens in token_lists])
    del token_lists
    index_dir = args.dir / "index"
    training_pairs = 0
    start = time.perf_counter()
    if args.workload == "search-l2p" and args.partitioner == "l2p":
        partitioner = L2PPartitioner(
            pairs_per_model=config["pairs_per_model"], epochs=config["epochs"],
            initial_groups=config["initial_groups"], seed=args.seed,
        )
        engine = LES3.build(dataset, partitioner=partitioner)
        training_pairs = partitioner.stats_.pairs_sampled
    elif args.workload == "rw-sharded":
        engine = ShardedLES3.build(
            dataset, config["num_shards"],
            partitioner_factory=lambda shard_id: MinTokenPartitioner(),
            workers=1,
        )
    elif args.workload == "search-l2p":
        engine = LES3.build(dataset, partitioner=MinTokenPartitioner())
    else:
        engine = LES3.build(
            dataset, num_groups=config["num_groups"], partitioner=MinTokenPartitioner()
        )
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    if isinstance(engine, ShardedLES3):
        save_sharded(engine, index_dir)
    else:
        save_engine(engine, index_dir)
    save_s = time.perf_counter() - start
    _write_json(
        args.dir / "build.json",
        {
            "build_s": build_s,
            "save_s": save_s,
            "training_pairs": training_pairs,
            "num_groups": engine.num_groups,
            "trace": _finish_trace(tracer, args.dir, "build"),
        },
    )


# -- loop -----------------------------------------------------------------------


def _requests(call: list) -> list:
    from repro.api import QueryRequest, WriteRequest

    requests = []
    for request in call:
        kind = request[0]
        if kind == "knn":
            requests.append(QueryRequest.knn([str(t) for t in request[1]], k=request[2]))
        elif kind == "range":
            requests.append(QueryRequest.range([str(t) for t in request[1]], threshold=request[2]))
        elif kind == "insert":
            requests.append(WriteRequest.insert([str(t) for t in request[1]]))
        elif kind == "remove":
            requests.append(WriteRequest.remove(request[1]))
        else:
            requests.append(QueryRequest.join(threshold=request[1]))
    return requests


def _pairs_digest(pairs: list) -> str:
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


class _Counts:
    """Per-query cost counters of the timed calls, read from ``QueryStats``."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def record(self, engine: object, request: object, result: object) -> None:
        from repro.core.metrics import knn_pruning_efficiency, range_pruning_efficiency

        stats = result.stats
        kind = result.kind
        if kind == "join":
            self.add("join.count", 1)
            self.add("join.candidates", stats.candidates_verified)
            self.add("join.results", len(result.matches))
            return
        live = len(engine.dataset) - len(engine.removed)
        if kind == "knn":
            pe = knn_pruning_efficiency(live, stats.candidates_verified, request.k)
        else:
            pe = range_pruning_efficiency(live, stats.candidates_verified, len(result.matches))
        self.add(f"{kind}.count", 1)
        self.add(f"{kind}.candidates", stats.candidates_verified)
        self.add(f"{kind}.groups_visited", engine.num_groups - stats.groups_pruned)
        self.add(f"{kind}.pe", pe)


def _answer(result: object, seen_joins: set) -> object:
    from repro.api import WriteResult

    if isinstance(result, WriteResult):
        return [result.index, result.shard, result.group]
    if result.kind == "join":
        pairs = [list(pair) for pair in result.matches]
        answer = {"digest": _pairs_digest(pairs), "count": len(pairs)}
        if answer["digest"] not in seen_joins:
            seen_joins.add(answer["digest"])
            answer["pairs"] = pairs
        return answer
    return [list(match) for match in result.matches]


def _tree_bytes(directory: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _, names in os.walk(directory)
        for name in names
    )


def loop(args: argparse.Namespace) -> None:
    tracer = _maybe_trace(args.trace)
    import repro
    from repro.api import execute_batch

    index_dir = args.dir / "index"
    mode = "memory" if args.workload == "join-dedup" else "mmap"
    engine = repro.load(index_dir, mode=mode, workers=1)
    open_s = time.time() - args.spawned

    plan = json.loads((args.dir / "plan.json").read_text())
    warmup = plan["warmup"]
    calls = [_requests(call) for call in plan["calls"]]
    del plan
    api_call = tracer.name_id("api.call") if tracer is not None else 0
    counts = _Counts()
    seen_joins: set = set()
    latencies: list[float] = []
    requests_per_call: list[int] = []
    answers: list = []
    failed = 0
    gc.collect()
    for position, requests in enumerate(calls):
        call_id = position - warmup
        if tracer is not None:
            tracer.call = call_id
            span = tracer.open(api_call)
        start = time.perf_counter()
        try:
            results = execute_batch(engine, requests)
        except Exception as error:  # counted and reported; the run goes on
            results = None
            print(f"call {position} failed: {error!r}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            tracer.call = tracing.SETUP
        if results is None:
            failed += len(requests)
            answers.append(None)
            continue
        answers.append([_answer(result, seen_joins) for result in results])
        if call_id >= 0:
            latencies.append(elapsed)
            requests_per_call.append(len(requests))
            for request, result in zip(requests, results):
                if hasattr(result, "stats"):
                    counts.record(engine, request, result)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def size_of(name: str) -> int:
        path = index_dir / name
        return path.stat().st_size if path.exists() else 0

    _write_json(
        args.dir / "loop.json",
        {
            "open_s": open_s,
            "latencies": latencies,
            "requests_per_call": requests_per_call,
            "attempted": sum(len(requests) for requests in calls),
            "failed": failed,
            "answers": answers,
            "counts": counts.totals,
            "peak_rss_kb": peak_rss_kb,
            "disk_bytes": _tree_bytes(index_dir),
            "dataset_txt_bytes": size_of("dataset.txt"),
            "dataset_bin_bytes": size_of("dataset.bin"),
            "delta_log_bytes": size_of("delta.log"),
            "index_bytes": engine.index_bytes(),
            "sharded": hasattr(engine, "num_shards"),
            "trace": _finish_trace(tracer, args.dir, "loop"),
        },
    )


# -- reopen ---------------------------------------------------------------------


def reopen(args: argparse.Namespace) -> None:
    import repro

    plan = json.loads((args.dir / "plan.json").read_text())
    engine = repro.load(args.dir / "index")
    base_size = plan["base_size"]
    sample = workloads.durability_sample(plan["calls"])
    results = repro.api.execute_batch(engine, _requests(sample))
    _write_json(
        args.dir / "reopen.json",
        {
            "num_records": len(engine.dataset),
            "removed": sorted(engine.removed),
            "inserted": [
                sorted(engine.tokens_of(index))
                for index in range(base_size, len(engine.dataset))
            ],
            "answers": [[list(match) for match in result.matches] for result in results],
        },
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("build", "loop", "reopen"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned", type=float, default=0.0, help="wall clock at spawn")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--partitioner", choices=("l2p", "mintoken"), default="l2p")
    args = parser.parse_args()
    {"build": build, "loop": loop, "reopen": reopen}[args.stage](args)


if __name__ == "__main__":
    main()
