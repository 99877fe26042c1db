"""Workload definitions: sizes, generators, and request plans.

A workload is a dataset plus a *plan*: a fixed list of API calls, each a
list of requests.  Both come from ``--seed`` alone, so the same seed gives
the same inputs.  The generators use :mod:`repro.datasets` /
:mod:`repro.workloads` where the paper's setup names them and plain
``random`` otherwise; the engine only ever sees the resulting token lists.

Requests are plain JSON-able lists so that the loop process, the oracle and
the durability check all read the same plan:

* ``["knn", tokens, k]`` / ``["range", tokens, threshold]``
* ``["insert", tokens]`` / ``["remove", record_index]``
* ``["join", threshold]``

Tokens are ints here; the engine receives them as strings.  Importing this
module does not import :mod:`repro` (the oracle side reads the sizes too).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("search-l2p", "rw-sharded", "join-dedup")

# Per-workload parameters.  ``calls_per_second`` fixes the request count of
# a run: a run makes ``max(min_calls, ceil(calls_per_second * seconds))``
# timed calls, so the count never depends on how fast the host is, and a
# run on this kind of host measures roughly ``--seconds`` seconds.
FULL = {
    "search-l2p": {
        "num_sets": 100_000,
        "num_tokens": 50_000,
        "set_size": 12,
        "alpha": 2.0,
        "pairs_per_model": 2_000,
        "epochs": 1,
        "initial_groups": 128,
        "k": 10,
        "threshold": 0.5,
        "knn_per_call": 4,
        "range_per_call": 4,
        "query_pool": 2_000,
        "warmup_calls": 4,
        "min_calls": 100,
        "calls_per_second": 7.0,
    },
    "rw-sharded": {
        "num_sets": 30_000,
        "vocabulary": 20_000,
        "sets_per_template": 60,
        "template_size": 14,
        "copy_size": 10,
        "num_shards": 4,
        "k": 10,
        "threshold": 0.5,
        "knn_per_call": 4,
        "range_per_call": 4,
        "inserts_per_call": 1,
        "removes_per_call": 1,
        "query_pool": 2_000,
        "warmup_calls": 10,
        "min_calls": 100,
        "calls_per_second": 60.0,
    },
    "join-dedup": {
        "num_sets": 4_000,
        "num_groups": 50,
        "num_topics": 50,
        "topic_vocabulary": 40,
        "min_size": 4,
        "max_size": 14,
        "duplicate_fraction": 0.1,
        "thresholds": [0.6, 0.75, 0.9],
        "warmup_calls": 3,
        "min_calls": 100,
        "calls_per_second": 18.0,
    },
}

# The small-size mode: every workload and every check, in seconds.
SMALL = {
    "search-l2p": {
        **FULL["search-l2p"],
        "num_sets": 3_000, "num_tokens": 1_500, "pairs_per_model": 200, "initial_groups": 4,
        "query_pool": 60, "warmup_calls": 2, "min_calls": 8, "calls_per_second": 4.0,
    },
    "rw-sharded": {
        **FULL["rw-sharded"],
        "num_sets": 1_200, "vocabulary": 1_000, "query_pool": 60,
        "warmup_calls": 2, "min_calls": 10, "calls_per_second": 5.0,
    },
    "join-dedup": {
        **FULL["join-dedup"],
        "num_sets": 400, "num_groups": 10, "num_topics": 10,
        "warmup_calls": 3, "min_calls": 6, "calls_per_second": 3.0,
    },
}


def params(workload: str, small: bool) -> dict:
    """The parameter set of one workload at full or small size."""
    return (SMALL if small else FULL)[workload]


def timed_calls(config: dict, seconds: float) -> int:
    """The fixed number of timed calls of a run of ``seconds`` seconds."""
    return max(config["min_calls"], math.ceil(config["calls_per_second"] * seconds))


def generate(workload: str, config: dict, seed: int, seconds: float) -> tuple[list, list]:
    """``(token_lists, calls)``: the dataset and the whole plan (warm-up first)."""
    num_calls = config["warmup_calls"] + timed_calls(config, seconds)
    if workload == "search-l2p":
        return _search_l2p(config, seed, num_calls)
    if workload == "rw-sharded":
        return _rw_sharded(config, seed, num_calls)
    if workload == "join-dedup":
        return _join_dedup(config, seed, num_calls)
    raise ValueError(f"unknown workload {workload!r}")


# -- search-l2p ----------------------------------------------------------------


def _search_l2p(config: dict, seed: int, num_calls: int) -> tuple[list, list]:
    """Paper §7.7 power-law data; queries half sampled (§7.1), half perturbed."""
    from repro.core import Dataset
    from repro.core.tokens import TokenUniverse
    from repro.datasets import powerlaw_similarity_dataset
    from repro.workloads import perturbed_queries, sample_queries

    num_tokens = config["num_tokens"]
    dataset = powerlaw_similarity_dataset(
        config["num_sets"], num_tokens, config["set_size"], config["alpha"], seed=seed
    )
    token_lists = [list(record.tokens) for record in dataset.records]
    half = config["query_pool"] // 2
    sampled = [list(r.tokens) for r in sample_queries(dataset, half, seed=seed + 1)]
    # A universe twice as wide as the indexed one: perturbed tokens drawn
    # from its upper half appear in no stored set, so they reach the engine
    # as unseen tokens (Section 3.1).
    wide = Dataset(dataset.records, TokenUniverse(range(2 * num_tokens)))
    perturbed = [
        sorted(r.distinct) for r in perturbed_queries(wide, half, seed=seed + 2)
    ]
    calls = []
    cursor = 0
    for _ in range(num_calls):
        call = []
        for kind, count in (("knn", config["knn_per_call"]), ("range", config["range_per_call"])):
            for slot in range(count):
                pool = sampled if slot % 2 == 0 else perturbed
                tokens = pool[cursor % half]
                cursor += 1
                call.append(
                    [kind, tokens, config["k"] if kind == "knn" else config["threshold"]]
                )
        calls.append(call)
    return token_lists, calls


# -- rw-sharded -----------------------------------------------------------------


def _template_copies(
    rng: random.Random, templates: list, copy_size: int, count: int, token_space: int
) -> list:
    """Noisy copies: ``copy_size`` tokens of a random template plus one random token."""
    lists = []
    for _ in range(count):
        tokens = set(rng.sample(templates[rng.randrange(len(templates))], copy_size))
        tokens.add(rng.randrange(token_space))
        lists.append(sorted(tokens))
    return lists


def _rw_sharded(config: dict, seed: int, num_calls: int) -> tuple[list, list]:
    """Template-copy data; mixed reads with ~20% inserts and removes."""
    rng = random.Random(seed)
    vocabulary = config["vocabulary"]
    num_templates = max(config["num_sets"] // config["sets_per_template"], 1)
    copy_size = config["copy_size"]
    templates = [
        rng.sample(range(vocabulary), config["template_size"]) for _ in range(num_templates)
    ]
    token_lists = _template_copies(rng, templates, copy_size, config["num_sets"], vocabulary)
    # Queries: half copies of stored sets, half with a quarter of their
    # tokens replaced from a twice-wider space (unseen tokens occur).  Every
    # 20th query holds only tokens no set ever holds: its kNN answer is the
    # k smallest live indices at similarity 0, across shards and tombstones.
    queries = []
    for position in range(config["query_pool"]):
        if position % 20 == 19:
            queries.append(list(range(2 * vocabulary + position, 2 * vocabulary + position + 4)))
            continue
        tokens = list(token_lists[rng.randrange(len(token_lists))])
        if position % 2:
            for _ in range(max(len(tokens) // 4, 1)):
                tokens[rng.randrange(len(tokens))] = rng.randrange(2 * vocabulary)
        queries.append(sorted(set(tokens)))
    # Writes: inserts are fresh copies whose random token may be new to the
    # universe; removes pick a live record, inserted ones included.  Slots
    # are never reused, so the n-th insert lands at index |D| + n.
    live = list(range(len(token_lists)))
    next_index = len(token_lists)
    calls = []
    cursor = 0
    for _ in range(num_calls):
        call = []
        for _ in range(config["inserts_per_call"]):
            call.append(["insert", _template_copies(rng, templates, copy_size, 1, 2 * vocabulary)[0]])
            live.append(next_index)
            next_index += 1
        for _ in range(config["removes_per_call"]):
            slot = rng.randrange(len(live))
            live[slot], live[-1] = live[-1], live[slot]
            call.append(["remove", live.pop()])
        for kind, count in (("knn", config["knn_per_call"]), ("range", config["range_per_call"])):
            for _ in range(count):
                call.append(
                    [kind, queries[cursor % len(queries)],
                     config["k"] if kind == "knn" else config["threshold"]]
                )
                cursor += 1
        calls.append(call)
    return token_lists, calls


# -- join-dedup -----------------------------------------------------------------


def _join_dedup(config: dict, seed: int, num_calls: int) -> tuple[list, list]:
    """Topic-structured sets with planted near-duplicates (data cleaning).

    Sets arrive topic by topic, as a catalog exported by category would, so
    token ids are interned topic by topic and the MinToken groups follow the
    topics: the work per join depends on the data's shape, not on the seed.
    """
    rng = random.Random(seed)
    width = config["topic_vocabulary"]
    per_topic = config["num_sets"] // config["num_topics"]
    token_lists: list[list[int]] = []
    for topic in range(config["num_topics"]):
        vocabulary = range(topic * width, (topic + 1) * width)
        first = len(token_lists)
        for _ in range(per_topic):
            if len(token_lists) > first and rng.random() < config["duplicate_fraction"]:
                # A near-duplicate of an earlier set of the topic: one token
                # dropped, and sometimes one token of the topic added.
                tokens = set(token_lists[rng.randrange(first, len(token_lists))])
                tokens.discard(rng.choice(sorted(tokens)))
                if len(tokens) < config["min_size"] or rng.random() < 0.5:
                    tokens.add(rng.choice(vocabulary))
                token_lists.append(sorted(tokens))
            else:
                size = rng.randint(config["min_size"], config["max_size"])
                token_lists.append(sorted(rng.sample(vocabulary, size)))
    thresholds = config["thresholds"]
    calls = [[["join", thresholds[i % len(thresholds)]]] for i in range(num_calls)]
    return token_lists, calls


def durability_sample(calls: list) -> list:
    """The reads the durability check replays on the reopened index."""
    reads = [request for call in calls for request in call if request[0] in ("knn", "range")]
    return reads[::10][:100]
