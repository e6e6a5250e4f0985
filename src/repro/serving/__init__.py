"""Sharded async serving layer: the simulator as a service.

Turns the single-process tick simulator into a horizontally sharded
service: the grid extent is striped into spatial shards, each owned by a
worker (in-process or ``multiprocessing``) running its own full engine —
grid index, tick scheduler, batch executor, lease enforcement — fronted
by a gateway that admits object updates, routes query subscriptions, and
streams per-tick answer deltas to subscribers.

Correctness model: every shard replicates the complete object stream and
answers only for the queries routed to it, so each answer is computed by
a deterministic full simulator over the identical event sequence —
bit-identical to the single-process engine by construction, and pinned
by the lockstep suite (``tests/serving/``).  See ``docs/SERVING.md`` for
the architecture and the replication trade-off.
"""

from repro.serving.counters import merge_stats, stats_delta, stats_snapshot
from repro.serving.gateway import (
    AnswerDelta,
    AsyncGateway,
    InlineShard,
    ProcessShard,
    ShardCluster,
    ShardFault,
)
from repro.serving.router import (
    cell_of_point,
    route_query,
    shard_of_cell,
    shard_of_name,
    shard_of_point,
)
from repro.serving.shard import (
    PushFeed,
    QuerySpec,
    ShardConfig,
    ShardState,
    TickResult,
    build_query,
    worker_main,
)

__all__ = [
    "AnswerDelta",
    "AsyncGateway",
    "InlineShard",
    "ProcessShard",
    "PushFeed",
    "QuerySpec",
    "ShardCluster",
    "ShardConfig",
    "ShardFault",
    "ShardState",
    "TickResult",
    "build_query",
    "cell_of_point",
    "merge_stats",
    "route_query",
    "shard_of_cell",
    "shard_of_name",
    "shard_of_point",
    "stats_delta",
    "stats_snapshot",
    "worker_main",
]
