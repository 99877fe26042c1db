"""The engine benchmark: one workload, one seed, checked answers, named metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-l2p --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --small            # every workload, tiny sizes

A run has three or four processes: ``stage.py build`` generates the inputs
from the seed and builds and saves the index, ``stage.py loop`` opens it
and sends the timed calls, ``stage.py reopen`` (``rw-sharded`` only)
re-opens the directory for the durability check, and this process checks
every answer against :mod:`oracle` and prints the metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
appends a record (host, versions, metrics) to ``perfbench/out/runs.jsonl``
and a traced run leaves its spans in ``perfbench/out/trace-<workload>.json``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# End-to-end and per-layer metric units, in the order they are printed.
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
    "peak_rss_mb": "MB", "disk_mb": "MB",
}
PER_LAYER = {
    "learn.partition_s": "s", "learn.training_pairs": "count",
    "partitioning.partition_s": "s", "tgm.build_s": "s",
    "persistence.save_s": "s", "api.open_s": "s",
    "storage.dataset_txt_mb": "MB", "storage.dataset_bin_mb": "MB", "tgm.index_mb": "MB",
    "engine.intern_ms": "ms", "batch.bound_ms": "ms",
    "distributed.shard_bound_ms": "ms", "distributed.shards_visited_per_query": "count",
    "search.visit_ms": "ms", "columnar.verify_ms": "ms", "search.merge_ms": "ms",
    "search.knn_candidates_per_query": "count", "search.range_candidates_per_query": "count",
    "search.knn_groups_visited_per_query": "count",
    "search.range_groups_visited_per_query": "count",
    "search.knn_pe": "ratio", "search.range_pe": "ratio",
    "updates.apply_ms": "ms", "delta.append_ms": "ms", "delta.fsync_ms": "ms",
    "delta.fsyncs_per_write": "count", "delta.bytes_per_write": "B", "columnar.sync_ms": "ms",
    "join.profile_ms": "ms", "join.bound_ms": "ms", "join.verify_ms": "ms",
    "join.candidate_pairs": "count", "join.useful_ratio": "ratio",
    "trace.ops_per_s": "1/s",
}
# ops_per_s is the median over this many consecutive slices of the timed calls.
SEGMENTS = 10
MB = float(1 << 20)


# -- running the stages ---------------------------------------------------------


def _stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One busy thread per run: the command pins the BLAS pool; default to 1
    # when it is run without those variables.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(variable, "1")
    return env


def _run_stage(stage: str, args: argparse.Namespace, run_dir: Path) -> None:
    command = [
        sys.executable, str(HERE / "stage.py"), stage,
        "--workload", args.workload, "--dir", str(run_dir),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.small:
        command.append("--small")
    if args.trace:
        command.append("--trace")
    if stage == "build":
        command += ["--partitioner", args.partitioner]
    if stage == "loop":
        command += ["--spawned", repr(time.time())]
    subprocess.run(command, env=_stage_env(), check=True, timeout=600)


# -- checking the answers ---------------------------------------------------------


def _load_token_lists(run_dir: Path) -> list[list[int]]:
    with np.load(run_dir / "data.npz") as data:
        indptr, tokens = data["indptr"], data["tokens"]
    return [tokens[indptr[i]:indptr[i + 1]].tolist() for i in range(len(indptr) - 1)]


def _as_pairs(answer: list) -> list[tuple[int, float]]:
    return [(int(index), float(similarity)) for index, similarity in answer]


def check_search(plan: dict, token_lists: list, loop: dict, reopen: dict | None) -> list[str]:
    """Replay the plan against a live-record model; compare every answer."""
    problems: list[str] = []
    calls = plan["calls"]
    base_size = len(token_lists)
    inserted = [request[1] for call in calls for request in call if request[0] == "insert"]
    corpus = oracle.Corpus(token_lists + inserted)
    queries = sorted({
        tuple(request[1]) for call in calls for request in call
        if request[0] in ("knn", "range")
    })
    row_of = {query: row for row, query in enumerate(queries)}
    overlaps, query_sizes = corpus.overlaps(queries)
    live = np.zeros(len(corpus), dtype=bool)
    live[:base_size] = True
    next_index = base_size

    def expected(request: list) -> list[tuple[int, float]]:
        row = row_of[tuple(request[1])]
        indices, similarities = oracle.row_similarities(
            overlaps, row, int(query_sizes[row]), corpus.sizes
        )
        if request[0] == "knn":
            return oracle.knn_answer(indices, similarities, request[2], live)
        return oracle.range_answer(indices, similarities, request[2], live)

    for position, (call, answers) in enumerate(zip(calls, loop["answers"])):
        # The engine applies a batch's writes before its reads; so does the model.
        for request in call:
            if request[0] == "insert":
                live[next_index] = True
                next_index += 1
            elif request[0] == "remove":
                live[request[1]] = False
        if answers is None:
            continue
        insert_index = next_index - sum(1 for r in call if r[0] == "insert")
        for request, answer in zip(call, answers):
            if request[0] == "insert":
                if answer[0] != insert_index:
                    problems.append(f"call {position}: insert got index {answer[0]}, "
                                    f"expected {insert_index}")
                insert_index += 1
            elif request[0] == "remove":
                if answer[0] != request[1]:
                    problems.append(f"call {position}: remove of {request[1]} reported {answer[0]}")
            elif _as_pairs(answer) != expected(request):
                problems.append(f"call {position}: {request[0]} answer differs from brute force")
    if reopen is not None:
        problems += _check_durability(plan, inserted, live, reopen, expected)
    return problems


def _check_durability(plan: dict, inserted: list, live: np.ndarray, reopen: dict,
                      expected) -> list[str]:
    """The reopened directory must hold exactly the acknowledged writes."""
    problems = []
    base_size = plan["base_size"]
    if reopen["num_records"] != base_size + len(inserted):
        problems.append(f"reopened index holds {reopen['num_records']} records, expected "
                        f"{base_size + len(inserted)}")
    removed = sorted(int(i) for i in np.flatnonzero(~live))
    if reopen["removed"] != removed:
        problems.append("reopened index's removed records differ from the acknowledged removes")
    for ordinal, tokens in enumerate(inserted):
        found = reopen["inserted"][ordinal] if ordinal < len(reopen["inserted"]) else None
        if found != sorted(str(t) for t in tokens):
            problems.append(f"reopened insert {base_size + ordinal} lost its tokens")
    for request, answer in zip(workloads.durability_sample(plan["calls"]), reopen["answers"]):
        if _as_pairs(answer) != expected(request):
            problems.append(f"reopened {request[0]} answer differs from brute force")
    return problems


def check_join(plan: dict, token_lists: list, loop: dict) -> list[str]:
    """Every join's pairs and similarities equal the scipy all-pairs product."""
    problems = []
    corpus = oracle.Corpus(token_lists)
    truth: dict[float, tuple[str, list]] = {}
    for position, (call, answers) in enumerate(zip(plan["calls"], loop["answers"])):
        if answers is None:
            continue
        threshold = call[0][1]
        if threshold not in truth:
            pairs = oracle.self_join(corpus, threshold)
            if not pairs:
                problems.append(f"join at {threshold} has an empty answer")
            digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
            truth[threshold] = (digest, pairs)
        digest, pairs = truth[threshold]
        answer = answers[0]
        if answer["digest"] != digest or ("pairs" in answer and answer["pairs"] != pairs):
            problems.append(f"call {position}: join at {threshold} differs from brute force")
    return problems


# -- metrics --------------------------------------------------------------------------


def end_to_end(build: dict, loop: dict) -> dict[str, float]:
    latencies = np.asarray(loop["latencies"])
    sizes = np.asarray(loop["requests_per_call"])
    rates = [
        part_sizes.sum() / part_latencies.sum()
        for part_latencies, part_sizes in zip(
            np.array_split(latencies, SEGMENTS), np.array_split(sizes, SEGMENTS)
        )
        if len(part_latencies)
    ]
    return {
        "setup_s": build["build_s"] + build["save_s"] + loop["open_s"],
        "ops_per_s": float(np.median(rates)),
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": loop["peak_rss_kb"] / 1024.0,
        "disk_mb": loop["disk_bytes"] / MB,
    }


def per_layer(plan: dict, build: dict, loop: dict, traced_ops_per_s: float) -> dict[str, float]:
    build_setup = build["trace"]["setup"]
    loop_setup = loop["trace"]["setup"]
    timed = loop["trace"]["timed"]
    warmup = plan["warmup"]
    timed_calls = plan["calls"][warmup:]
    num_calls = len(timed_calls)
    kinds = [request[0] for call in timed_calls for request in call]
    writes = sum(kind in ("insert", "remove") for kind in kinds)
    all_writes = sum(r[0] in ("insert", "remove") for call in plan["calls"] for r in call)
    queries = sum(kind in ("knn", "range") for kind in kinds)
    counts = loop["counts"]

    def seconds(summary: dict, layer: str) -> float:
        return summary.get(layer, {}).get("incl_ns", 0) / 1e9

    def per(layer: str, denominator: int, key: str = "self_ns") -> float:
        total = timed.get(layer, {}).get(key, 0)
        return total / 1e6 / denominator if denominator else 0.0

    def mean(kind: str, field: str) -> float:
        count = counts.get(f"{kind}.count", 0)
        return counts.get(f"{kind}.{field}", 0) / count if count else 0.0

    return {
        "learn.partition_s": seconds(build_setup, "learn.partition"),
        "learn.training_pairs": build["training_pairs"],
        "partitioning.partition_s": seconds(build_setup, "partitioning.partition"),
        "tgm.build_s": seconds(build_setup, "tgm.build") + seconds(loop_setup, "tgm.build"),
        "persistence.save_s": seconds(build_setup, "persistence.save"),
        "api.open_s": seconds(loop_setup, "api.open"),
        "storage.dataset_txt_mb": loop["dataset_txt_bytes"] / MB,
        "storage.dataset_bin_mb": loop["dataset_bin_bytes"] / MB,
        "tgm.index_mb": loop["index_bytes"] / MB,
        "engine.intern_ms": per("engine.intern", num_calls),
        "batch.bound_ms": per("batch.bound", num_calls),
        "distributed.shard_bound_ms": per("distributed.shard_bound", num_calls),
        "distributed.shards_visited_per_query": (
            timed.get("search.visit", {}).get("count", 0) / queries
            if loop["sharded"] and queries else 0.0
        ),
        "search.visit_ms": per("search.visit", num_calls),
        "columnar.verify_ms": per("columnar.verify", num_calls),
        "search.merge_ms": per("search.merge", num_calls),
        "search.knn_candidates_per_query": mean("knn", "candidates"),
        "search.range_candidates_per_query": mean("range", "candidates"),
        "search.knn_groups_visited_per_query": mean("knn", "groups_visited"),
        "search.range_groups_visited_per_query": mean("range", "groups_visited"),
        "search.knn_pe": mean("knn", "pe"),
        "search.range_pe": mean("range", "pe"),
        "updates.apply_ms": per("updates.apply", writes),
        "delta.append_ms": per("delta.append", writes, "incl_ns"),
        "delta.fsync_ms": per("delta.fsync", writes, "incl_ns"),
        "delta.fsyncs_per_write": (
            timed.get("delta.fsync", {}).get("count", 0) / writes if writes else 0.0
        ),
        "delta.bytes_per_write": loop["delta_log_bytes"] / all_writes if all_writes else 0.0,
        "columnar.sync_ms": per("columnar.sync", num_calls),
        "join.profile_ms": per("join.profile", num_calls),
        "join.bound_ms": per("join.bound", num_calls),
        "join.verify_ms": per("join.verify", num_calls),
        "join.candidate_pairs": mean("join", "candidates"),
        "join.useful_ratio": (
            counts["join.results"] / counts["join.candidates"]
            if counts.get("join.candidates") else 0.0
        ),
        "trace.ops_per_s": traced_ops_per_s,
    }


# -- the run record -----------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return completed.stdout.strip() or None


def host_record() -> dict:
    env = _stage_env()
    return {
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": env["OPENBLAS_NUM_THREADS"],
    }


# -- one run ------------------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    try:
        _run_stage("build", args, run_dir)
        _run_stage("loop", args, run_dir)
        if args.workload == "rw-sharded":
            _run_stage("reopen", args, run_dir)
        plan = json.loads((run_dir / "plan.json").read_text())
        build = json.loads((run_dir / "build.json").read_text())
        loop = json.loads((run_dir / "loop.json").read_text())
        token_lists = _load_token_lists(run_dir)
        if args.workload == "join-dedup":
            problems = check_join(plan, token_lists, loop)
        else:
            reopen_path = run_dir / "reopen.json"
            reopen = json.loads(reopen_path.read_text()) if reopen_path.exists() else None
            problems = check_search(plan, token_lists, loop, reopen)
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        measured = end_to_end(build, loop)
        if args.trace:
            metrics = per_layer(plan, build, loop, measured["ops_per_s"])
            units = PER_LAYER
            spans = {
                stage: json.loads((run_dir / f"trace-{stage}.json").read_text())
                for stage in ("build", "loop")
            }
            (OUT / f"trace-{args.workload}.json").write_text(json.dumps(spans))
        else:
            metrics, units = measured, END_TO_END
        result = {
            "correct": not problems,
            "attempted": loop["attempted"],
            "failed": loop["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "small": args.small, "time": time.time(),
        **host_record(), **result,
    }
    print(json.dumps(record))
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="tiny sizes; without --workload, run every workload",
    )
    parser.add_argument(
        "--partitioner", choices=("l2p", "mintoken"), default="l2p",
        help="search-l2p only: build with MinTokenPartitioner to see whether learning pays",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        if not args.small:
            parser.error("--workload is required (or --small to run every workload)")
        results = []
        for workload in workloads.WORKLOADS:
            args.workload = workload
            results.append(run(args))
        ok = all(r["correct"] and not r["failed"] for r in results)
        print(json.dumps({"correct": ok, "workloads": list(workloads.WORKLOADS)}))
        return 0 if ok else 1
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
