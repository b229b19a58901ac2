"""A whole simulated run leaves no cyclic garbage behind.

Finished simulated work (fired timers, answered waits, served proofs and
replies) must be freed by reference counting alone.  Each case builds a
small deployment, collects everything that already exists, then runs a mixed
workload with the cyclic collector off and ``DEBUG_SAVEALL`` set, so every
object that only a collection could reclaim is counted by the final
``gc.collect()``.
"""

from __future__ import annotations

import gc

from repro.bench.drivers import execute_workload
from repro.bench.experiments import build_system, edge_latency_config, make_generator
from repro.common.config import BatchConfig, EdgeConfig, SystemConfig
from repro.core.system import TransEdgeSystem


def _cyclic_garbage_of(system: TransEdgeSystem, specs) -> int:
    """Objects left unreachable-but-uncollected by running ``specs``."""
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    saved = len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        execute_workload(system, specs, concurrency=6, num_clients=3)
        return gc.collect()
    finally:
        gc.set_debug(debug)
        del gc.garbage[saved:]
        if was_enabled:
            gc.enable()


def test_edge_tier_run_leaves_no_cyclic_garbage():
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=3,
            fault_tolerance=1,
            batch=BatchConfig(max_size=10, timeout_ms=5.0),
            latency=edge_latency_config(),
            initial_keys=90,
            value_size=64,
            edge=EdgeConfig(enabled=True, num_proxies=2),
        )
    )
    generator = make_generator(
        system, read_only_fraction=0.7, local_fraction=0.2, distribution="zipfian"
    )
    specs = list(generator.mixed_stream(60))
    assert _cyclic_garbage_of(system, specs) == 0
    counters = system.counters()
    assert counters.edge_reads_served > 0
    assert counters.edge_core_fetches > 0


def test_snapshot_read_run_leaves_no_cyclic_garbage():
    system = build_system(
        num_partitions=3, fault_tolerance=1, batch_size=10, initial_keys=90
    )
    generator = make_generator(system, read_only_fraction=0.5, local_fraction=0.3)
    specs = list(generator.mixed_stream(60))
    assert _cyclic_garbage_of(system, specs) == 0
    counters = system.counters()
    assert counters.snapshot_fast_path + counters.snapshot_rebuilds > 0
