"""A cloned Merkle tree behaves like a freshly built one and stays private."""

from __future__ import annotations

import random

import pytest

from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import MerkleStore, MerkleTree, verify_proof


def make_items(n: int) -> dict:
    return {f"key-{i:03d}": f"value-{i}".encode() for i in range(n)}


def all_proofs(tree) -> list:
    return [tree.prove(key) for key in tree.keys()]


@pytest.mark.parametrize("seed", range(6))
def test_clone_tracks_a_fresh_tree_and_leaves_the_original_alone(seed):
    rng = random.Random(seed)
    items = make_items(rng.randint(1, 70))
    original = MerkleTree(items)
    original_root, original_proofs = original.root, all_proofs(original)
    clone, fresh = original.clone(), MerkleTree(items)
    keys = list(items)

    for step in range(25):
        updates = {
            key: f"{key}@{step}".encode()
            for key in rng.sample(keys, rng.randint(1, min(5, len(keys))))
        }
        assert clone.root_with_updates(updates) == fresh.root_with_updates(updates)
        assert clone.capture_paths(updates) == fresh.capture_paths(updates)
        if rng.random() < 0.7:
            assert clone.update_values(updates) == fresh.update_values(updates)
            items.update(updates)
        assert clone.root == fresh.root
        assert all_proofs(clone) == all_proofs(fresh)

    assert clone.root == MerkleTree(items).root
    for key in keys:
        assert verify_proof(clone.root, key, items[key], clone.prove(key))
    assert original.root == original_root
    assert all_proofs(original) == original_proofs


def test_merkle_stores_over_one_genesis_tree_stay_independent():
    items = make_items(20)
    genesis = MerkleTree(items)
    root = genesis.root
    stores = [
        MerkleStore(items, archive=MerkleTreeArchive(), tree=genesis.clone())
        for _ in range(2)
    ]
    reference = MerkleStore(items, archive=MerkleTreeArchive())

    stores[0].apply({"key-003": b"changed"}, batch=1)
    reference.apply({"key-003": b"changed"}, batch=1)
    stores[0].apply({"key-new": b"inserted"}, batch=2)
    reference.apply({"key-new": b"inserted"}, batch=2)

    assert stores[0].root == reference.root
    for batch in (0, 1):
        assert stores[0].prove_at("key-003", batch) == reference.prove_at("key-003", batch)
    assert stores[1].root == genesis.root == root
    assert "key-new" not in stores[1]
    assert all_proofs(stores[1].tree) == all_proofs(MerkleTree(make_items(20)))
