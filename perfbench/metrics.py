"""Metric arithmetic, per-layer extraction, memory and provenance helpers."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import time
from dataclasses import asdict
from statistics import median
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.phases import PHASES

#: Percentiles tried for a tail, highest first; the reported tail is the
#: highest one with at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 < pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest supported tail."""
    for pct in TAIL_LADDER:
        beyond = math.floor(len(values) * (100.0 - pct) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile(values, pct), pct, beyond
    return max(values), 100.0, 0


# ---------------------------------------------------------------------------
# simulated-clock metrics from transaction records
# ---------------------------------------------------------------------------


def sim_metrics(outcome) -> Dict[str, Tuple[float, str]]:
    """Every simulated-time end-to-end metric that applies to this run.

    Values are ``(value, note)``; a metric whose input is absent from the
    workload (no reads, no crash) is left out.
    """
    records = outcome.records
    metrics: Dict[str, Tuple[float, str]] = {}
    span_s = (max(record.end_ms for record in records) - outcome.start_ms) / 1000.0
    commits = [record for record in records if record.outcome == "commit"]
    metrics["sim_commit_tps"] = (
        len(commits) / span_s, f"{len(commits)} commits in {span_s:.3f} sim s"
    )
    for prefix, sample in (
        ("sim_ro", [record.latency_ms for record in records if record.kind == "ro"]),
        ("sim_rw", [record.latency_ms for record in commits]),
    ):
        if not sample:
            continue
        metrics[f"{prefix}_p50_ms"] = (median(sample), f"n={len(sample)}")
        value, pct, beyond = tail(sample)
        metrics[f"{prefix}_tail_ms"] = (
            value, f"p{pct:g} of n={len(sample)}, {beyond} beyond"
        )
    reads = [record for record in records if record.kind == "ro"]
    if reads:
        two_round = sum(1 for record in reads if record.rounds >= 2)
        metrics["ro_two_round_frac"] = (
            two_round / len(reads), f"{two_round} of {len(reads)} reads"
        )
    failed = sum(1 for record in records if record.failed)
    metrics["failed_frac"] = (
        failed / len(records), f"{failed} of {len(records)} attempted"
    )
    if outcome.crash_ms is not None:
        times = sorted(
            record.end_ms
            for record in commits
            if record.touches_p0 and record.end_ms >= outcome.crash_ms
        )
        # With no commit after the crash, the gap lasts to the run's end.
        marks = [outcome.crash_ms] + (times or [outcome.start_ms + span_s * 1000.0])
        gap = max(b - a for a, b in zip(marks, marks[1:]))
        metrics["sim_unavailable_ms"] = (
            gap, f"{len(times)} partition-0 commits after the crash"
        )
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(tracer, system, outcome, run_events: int, messages: int) -> Dict[str, float]:
    """Per-layer counts (the program's counters) and self times (the tracer)."""
    counters = system.counters()
    transport = system.env.reliability
    transport_counts = transport.counters if transport is not None else {}
    caches = system.cache_snapshot()["totals"]
    finished = len(outcome.records)
    cluster = system.config.cluster_size
    batches_per_cluster = counters.batches_delivered / cluster
    reads = [record for record in outcome.records if record.kind == "ro"]
    committed = sum(1 for record in outcome.records if record.outcome == "commit")
    verify_hits = caches["verify_replicas"]["hits"] + caches["verify_clients"]["hits"]
    verify_lookups = verify_hits + (
        caches["verify_replicas"]["misses"] + caches["verify_clients"]["misses"]
    )
    edge_hits = caches["edge"]["hits"]
    edge_lookups = edge_hits + caches["edge"]["misses"]
    edge_served = sum(client.stats.edge_reads_served for client in system.clients)

    t = tracer.self_time
    layers: Dict[str, float] = {
        "simnet.events": run_events,
        "simnet.loop_self_s": t("simnet.loop"),
        "simnet.send_s": t("simnet.send"),
        "simnet.receive_s": t("simnet.receive"),
        "simnet.messages_per_txn": messages / finished,
        "simnet.retransmits": transport_counts.get("messages_retransmitted", 0),
        "simnet.acks_sent": transport_counts.get("acks_sent", 0),
        "bft.handle_s": t("bft.handle"),
        "bft.batches_delivered": batches_per_cluster,
        "bft.txns_per_batch": committed / batches_per_cluster if batches_per_cluster else 0.0,
        "bft.view_changes": counters.view_changes,
        "core.handler_self_s": t("core.handler"),
        "core.validate_s": t("core.validate"),
        "core.deliver_s": t("core.deliver"),
        "core.occ_check_s": t("core.occ_check"),
        "core.ro_verify_s": t("core.ro_verify"),
        "core.snapshot_fast_path": counters.snapshot_fast_path,
        "core.snapshot_rebuilds": counters.snapshot_rebuilds,
        "core.conflict_aborts": counters.conflict_aborts,
        "core.two_pc_retries": counters.two_pc_retries,
        "core.stranded_prepared": system.stranded_prepared_transactions(),
        "crypto.merkle_build_s": t("crypto.merkle_build"),
        "crypto.merkle_preview_s": t("crypto.merkle_preview"),
        "crypto.merkle_apply_s": t("crypto.merkle_apply"),
        "crypto.merkle_prove_calls": tracer.count("crypto.merkle_prove"),
        "crypto.merkle_prove_s": t("crypto.merkle_prove"),
        "crypto.proof_verify_calls": tracer.count("crypto.proof_verify"),
        "crypto.sig_verify_calls": tracer.count("crypto.sig_verify"),
        "crypto.sig_verify_s": t("crypto.sig_verify"),
        "crypto.verify_cache_hit_rate": verify_hits / verify_lookups if verify_lookups else 0.0,
        "crypto.verify_cache_lookups": verify_lookups,
        "crypto.encode_calls": tracer.count("crypto.encode"),
        "crypto.sha256_calls": tracer.count("crypto.sha256"),
        "storage.mvstore_build_s": t("storage.mvstore_build"),
        "storage.partition_of_calls": tracer.count("storage.partition_of"),
        "storage.mvstore_apply_s": t("storage.mvstore_apply"),
        "edge.cache_hit_rate": edge_hits / edge_lookups if edge_lookups else 0.0,
        "edge.cache_lookups": edge_lookups,
        "edge.core_fetches": counters.edge_core_fetches,
        "edge.served_frac": edge_served / len(reads) if reads else 0.0,
        "edge.cache_s": t("edge.cache"),
        "recovery.checkpoints_stable": counters.checkpoints_stable,
        "recovery.recoveries_completed": counters.recoveries_completed,
        "recovery.install_s": t("recovery.install"),
        "recovery.catchup_sim_ms": catchup_sim_ms(system),
    }
    aggregate = system.env.obs.phase_aggregate()
    for phase in PHASES:
        layers[f"obs.phase.{phase}.mean_ms"] = aggregate.summary(phase).mean_ms
    return layers


def catchup_sim_ms(system) -> float:
    """Longest restart-to-recovery-complete interval in the flight recorder."""
    recorder = system.env.obs.recorder
    restarts: Dict[str, float] = {}
    longest = 0.0
    for event in recorder.timeline():
        if event.kind == "replica-restart":
            restarts[event.node] = event.time_ms
        elif event.kind == "recovery-complete" and event.node in restarts:
            longest = max(longest, event.time_ms - restarts.pop(event.node))
    return longest


# ---------------------------------------------------------------------------
# process memory, machine calibration and provenance
# ---------------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            match = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
        if match:
            return int(match.group(1)) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop (not gated)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for index in range(300_000):
            table[index & 1023] = index
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best


def _git(root: str, *args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: str, workload, seed: int, events: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    rev = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    setup = json.dumps(
        {"config": asdict(workload.config), "workload": workload.params()},
        sort_keys=True,
        default=str,
    )
    return {
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "config_digest": hashlib.sha256(setup.encode("utf-8")).hexdigest()[:16],
        "events": events,
        "calibration_s": calibration_s(),
    }
