"""A partition's replicas share one genesis state, yet stay isolated.

The deployment builds each partition's preloaded data, genesis Merkle tree
and genesis checkpoint image once and hands every replica a private copy.
Writes to one replica's store or Merkle tree, and a crash/restart of one
replica, must never show through on its peers or on the shared state.
"""

from __future__ import annotations

import pytest

from repro.common.config import BatchConfig, SystemConfig
from repro.common.ids import NO_BATCH, PartitionId
from repro.core.system import TransEdgeSystem, generate_initial_data

PARTITION = PartitionId(0)


def build_system(initial_data=None) -> TransEdgeSystem:
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=64,
        batch=BatchConfig(max_size=4, timeout_ms=2.0),
    )
    return TransEdgeSystem(config, initial_data=initial_data)


def genesis_view(replica, keys):
    """Everything about ``replica`` that must stay at its genesis value."""
    return {
        "root": replica.merkle.root,
        "versions": {key: replica.store.version_of(key) for key in keys},
        "histories": {key: replica.store.history(key) for key in keys},
        "image_digest": replica.checkpoints.snapshots.genesis.digest(),
    }


@pytest.fixture
def system():
    return build_system()


def test_replicas_share_one_genesis_state(system):
    replicas = system.cluster_replicas(PARTITION)
    genesis = replicas[0].genesis
    assert all(replica.genesis is genesis for replica in replicas)
    assert all(
        replica.checkpoints.snapshots.genesis is genesis.image for replica in replicas
    )
    # Each replica owns its tree's digest levels.
    trees = [replica.merkle.tree for replica in replicas]
    assert len({id(tree) for tree in trees + [genesis.tree]}) == len(trees) + 1
    assert all(tree.root == genesis.tree.root for tree in trees)


def test_writes_on_one_replica_stay_private(system):
    replicas = system.cluster_replicas(PARTITION)
    keys = system.keys_of_partition(PARTITION)
    before = {replica.node_id: genesis_view(replica, keys) for replica in replicas}
    assert set(before[replicas[0].node_id]["versions"].values()) == {NO_BATCH}
    genesis = replicas[0].genesis
    genesis_root = genesis.tree.root
    writer, peers = replicas[1], [r for r in replicas if r is not replicas[1]]

    updates = {keys[0]: b"rewritten", keys[1]: b"also-rewritten"}
    writer.store.apply(updates, batch=50)
    writer.merkle.apply(updates, batch=50)
    inserted = {"brand-new-key": b"inserted"}
    writer.store.apply(inserted, batch=51)
    writer.merkle.apply(inserted, batch=51)

    assert writer.merkle.root != before[writer.node_id]["root"]
    assert writer.store.version_of(keys[0]) == 50
    for peer in peers:
        assert genesis_view(peer, keys) == before[peer.node_id]
        assert "brand-new-key" not in peer.store
        assert "brand-new-key" not in peer.merkle
    assert genesis.tree.root == genesis_root
    assert "brand-new-key" not in genesis.data
    assert genesis.data[keys[0]] == system.initial_data[keys[0]]


def test_crash_restart_keeps_peers_and_genesis_intact(system):
    replicas = system.cluster_replicas(PARTITION)
    keys = system.keys_of_partition(PARTITION)
    before = {replica.node_id: genesis_view(replica, keys) for replica in replicas}
    genesis = replicas[0].genesis
    restarted, peers = replicas[2], [r for r in replicas if r is not replicas[2]]

    restarted.reset_for_recovery()
    assert len(restarted.store) == 0
    assert restarted.checkpoints.snapshots.genesis is genesis.image
    restarted.install_snapshot(genesis.image, None)
    assert genesis_view(restarted, keys) == before[restarted.node_id]

    # The restored replica's state is its own: writing to it leaves the
    # peers and the shared genesis state untouched.
    restarted.store.apply({keys[0]: b"after-restart"}, batch=7)
    restarted.merkle.apply({keys[0]: b"after-restart"}, batch=7)
    for peer in peers:
        assert genesis_view(peer, keys) == before[peer.node_id]
    assert genesis.image.digest() == before[restarted.node_id]["image_digest"]
    assert genesis.data[keys[0]] == system.initial_data[keys[0]]


def test_caller_data_cannot_reach_the_shared_base():
    data = generate_initial_data(build_system().config)
    system = build_system(initial_data=data)
    replica = system.cluster_replicas(PARTITION)[0]
    key = system.keys_of_partition(PARTITION)[0]
    original = data[key]

    assert replica.genesis.data is not data
    with pytest.raises(TypeError):
        replica.genesis.data[key] = b"forged"  # type: ignore[index]

    data[key] = b"mutated-by-caller"
    data["caller-added-key"] = b"x"
    system.initial_data[key] = b"mutated-through-system"
    for peer in system.cluster_replicas(PARTITION):
        assert peer.store.latest(key).value == original
        assert peer.genesis.data[key] == original
        assert "caller-added-key" not in peer.store
        assert peer.checkpoints.snapshots.genesis.values()[key] == original
