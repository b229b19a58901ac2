"""Memoised Merkle proofs are exactly the proofs of a freshly built tree.

``MerkleTree.prove`` keeps each key's proof until the tree next changes.
These tests drive seeded random sequences of updates, proofs, clones and
store applies (new-key inserts included) and compare every proof served
against ``MerkleTree(items)`` built from scratch at that step.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.bench.experiments import _edge_byzantine_scenario
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.hashing import stable_encode
from repro.crypto.merkle import (
    MerkleStore,
    MerkleTree,
    ProofStep,
    proof_payload,
    verify_proof,
)


def make_items(n: int) -> dict:
    return {f"key-{i:03d}": f"value-{i}".encode() for i in range(n)}


def assert_proofs_fresh(tree: MerkleTree, items: dict, keys) -> None:
    fresh = MerkleTree(items)
    assert tree.root == fresh.root
    for key in keys:
        proof = tree.prove(key)
        assert proof == fresh.prove(key)
        assert verify_proof(tree.root, key, items[key], proof)


@pytest.mark.parametrize("seed", range(8))
def test_memoised_proofs_match_a_fresh_tree_at_every_step(seed):
    rng = random.Random(seed)
    items = make_items(rng.randint(1, 40))
    store = MerkleStore(items, archive=MerkleTreeArchive())
    history = {0: dict(items)}
    clones = []  # (tree, its own items)
    next_key = len(items)

    for batch in range(1, 60):
        keys = sorted(items)
        draw = rng.random()
        if draw < 0.35:
            updates = {
                key: f"{key}@{batch}".encode()
                for key in rng.sample(keys, rng.randint(1, min(4, len(keys))))
            }
            if rng.random() < 0.25:
                updates[f"key-{next_key:03d}"] = f"new@{batch}".encode()
                next_key += 1
            store.apply(updates, batch=batch)
            items.update(updates)
            history[batch] = dict(items)
        elif draw < 0.5:
            clones.append((store.tree.clone(), dict(items)))
        elif draw < 0.65 and clones:
            clone, clone_items = rng.choice(clones)
            updates = {
                key: f"clone@{batch}".encode()
                for key in rng.sample(sorted(clone_items), min(2, len(clone_items)))
            }
            clone.update_values(updates)
            clone_items.update(updates)
        elif draw < 0.75:
            past = rng.choice(sorted(history))
            if store.archive_covers(past):
                key = rng.choice(sorted(history[past]))
                if key in store.tree_at(past):
                    expected = MerkleTree(history[past]).prove(key)
                    assert store.prove_at(key, past) == expected
        # Prove a few keys twice (the second answer comes from the memo) and
        # check the live tree and every clone against fresh builds.
        sample = rng.sample(sorted(items), min(3, len(items)))
        assert_proofs_fresh(store.tree, items, sample + sample)
        for clone, clone_items in clones:
            assert_proofs_fresh(clone, clone_items, sorted(clone_items)[:3])
    assert_proofs_fresh(store.tree, items, sorted(items))


def test_memo_serves_one_proof_until_the_tree_changes():
    items = make_items(9)
    tree = MerkleTree(items)
    first = tree.prove("key-004")
    assert tree.prove("key-004") is first
    tree.update_values({"key-000": b"elsewhere"})
    second = tree.prove("key-004")
    assert second is not first
    assert second != first  # the sibling path through key-000 changed
    items["key-000"] = b"elsewhere"
    assert second == MerkleTree(items).prove("key-004")


def test_a_clone_does_not_share_the_memo():
    items = make_items(12)
    original = MerkleTree(items)
    before = {key: original.prove(key) for key in items}
    clone = original.clone()
    for key in items:
        assert clone.prove(key) == before[key]
    clone.update_values({"key-003": b"clone-only"})
    # The original still serves its own proofs, and the clone its new ones.
    for key in items:
        assert original.prove(key) is before[key]
    changed = dict(items, **{"key-003": b"clone-only"})
    assert_proofs_fresh(clone, changed, sorted(items))
    original.update_values({"key-007": b"original-only"})
    assert_proofs_fresh(clone, changed, sorted(items))
    assert_proofs_fresh(original, dict(items, **{"key-007": b"original-only"}), sorted(items))


def test_proof_payload_encoding_is_unchanged():
    tree = MerkleTree(make_items(37))
    tree.update_values({"key-005": b"changed", "key-036": b"odd-tail"})
    digest = hashlib.sha256()
    for key in tree.keys():
        digest.update(stable_encode(proof_payload(tree.prove(key))))
    # Pinned from the proofs made before steps were tuples and were memoised.
    assert digest.hexdigest() == (
        "efd7e0ab36b44e2fd08aa203db2f15c58d0b9cad5571f53ad49d2136c7de0789"
    )
    step = tree.prove("key-005").steps[0]
    assert step == ProofStep(sibling=step.sibling, sibling_is_left=step.sibling_is_left)


def test_tampering_with_a_served_proof_leaves_the_memoised_one_intact():
    items = make_items(16)
    tree = MerkleTree(items)
    proof = tree.prove("key-006")
    first = proof.steps[0]
    flipped = bytes([first.sibling[0] ^ 0xFF]) + first.sibling[1:]
    tampered = type(proof)(
        key=proof.key,
        steps=(first._replace(sibling=flipped),) + proof.steps[1:],
    )
    assert not verify_proof(tree.root, "key-006", items["key-006"], tampered)
    assert tree.prove("key-006") is proof
    assert verify_proof(tree.root, "key-006", items["key-006"], proof)


def test_tampered_proof_proxy_is_still_caught():
    outcome = _edge_byzantine_scenario("tampered-proof", reads=10)
    assert outcome["mutations"] >= 1
    assert outcome["verification_failures"] >= 1
    assert outcome["blacklisted"] == 1
    assert outcome["accepted_invalid"] == 0
