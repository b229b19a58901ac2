"""A store over a shared genesis base behaves exactly like an eager one.

``MultiVersionStore`` creates a key's version chain only on its first write.
These tests replay seeded random operation sequences against it and against
a reference model that materialises every chain up front, and require
identical answers — including iteration order and raised errors.
"""

from __future__ import annotations

import bisect
import random
from types import MappingProxyType

import pytest

from repro.common.errors import StorageError, UnknownKeyError
from repro.common.ids import NO_BATCH
from repro.common.types import VersionedValue
from repro.storage.mvstore import MultiVersionStore


class EagerStore:
    """Reference model: one ``[versions, values]`` chain per key from the start."""

    def __init__(self, genesis=None):
        self.chains = {key: ([NO_BATCH], [value]) for key, value in (genesis or {}).items()}

    def apply(self, writes, batch):
        if batch <= NO_BATCH:
            raise StorageError("reserved version")
        for key, value in writes.items():
            versions, values = self.chains.setdefault(key, ([], []))
            if versions and batch < versions[-1]:
                raise StorageError("older than latest")
            if versions and batch == versions[-1]:
                values[-1] = value
            else:
                versions.append(batch)
                values.append(value)

    def as_of(self, key, batch):
        if key not in self.chains:
            return None
        versions, values = self.chains[key]
        index = bisect.bisect_right(versions, batch) - 1
        if index < 0:
            return None
        return VersionedValue(value=values[index], version=versions[index])

    def get(self, key):
        if key not in self.chains:
            return None
        versions, values = self.chains[key]
        return VersionedValue(value=values[-1], version=versions[-1])

    def latest(self, key):
        if key not in self.chains:
            raise UnknownKeyError(key)
        return self.get(key)

    def version_of(self, key):
        return self.chains[key][0][-1] if key in self.chains else NO_BATCH

    def history(self, key):
        if key not in self.chains:
            raise UnknownKeyError(key)
        return tuple(zip(*self.chains[key]))

    def prune(self, upto):
        pruned = 0
        for versions, values in self.chains.values():
            cut = bisect.bisect_right(versions, upto) - 1
            if cut > 0:
                del versions[:cut]
                del values[:cut]
                pruned += cut
        return pruned

    def snapshot_image(self, batch):
        image = {}
        for key in self.chains:
            versioned = self.as_of(key, batch)
            if versioned is not None:
                image[key] = (versioned.version, versioned.value)
        return image

    def restore_image(self, image):
        if self.chains:
            raise StorageError("not empty")
        self.chains = {key: ([version], [value]) for key, (version, value) in image.items()}

    def keys(self):
        return tuple(self.chains)

    def max_chain_length(self):
        return max((len(versions) for versions, _ in self.chains.values()), default=0)

    def total_versions(self):
        return sum(len(versions) for versions, _ in self.chains.values())


def outcome(call):
    """A call's result, or the type of the error it raised."""
    try:
        return ("ok", call())
    except (StorageError, UnknownKeyError) as error:
        return ("error", type(error))


def assert_same_state(store, reference, probe_keys, batches):
    assert tuple(store.keys()) == reference.keys()
    assert len(store) == len(reference.chains)
    assert store.max_chain_length() == reference.max_chain_length()
    assert store.total_versions() == reference.total_versions()
    for key in probe_keys:
        assert (key in store) == (key in reference.chains)
        assert store.version_of(key) == reference.version_of(key)
        assert store.get(key) == reference.get(key)
        assert outcome(lambda: store.history(key)) == outcome(lambda: reference.history(key))
        assert outcome(lambda: store.latest(key)) == outcome(lambda: reference.latest(key))
        for batch in batches:
            assert store.as_of(key, batch) == reference.as_of(key, batch)
    for batch in batches:
        image = store.snapshot_image(batch)
        assert list(image.items()) == list(reference.snapshot_image(batch).items())
        expected = [(key, value) for key, (_, value) in reference.snapshot_image(batch).items()]
        assert list(store.snapshot_as_of(batch).items()) == expected
        assert list(store.iter_items_as_of(batch)) == expected


@pytest.mark.parametrize("seed", range(8))
def test_random_operations_match_an_eager_store(seed):
    rng = random.Random(seed)
    genesis = {f"g-{i:03d}": f"g{i}".encode() for i in rng.sample(range(200), 40)}
    new_keys = [f"n-{i:03d}" for i in range(15)]
    probe_keys = list(genesis) + new_keys + ["never-written"]
    store = MultiVersionStore(MappingProxyType(dict(genesis)))
    reference = EagerStore(genesis)
    batch = 0
    for step in range(120):
        op = rng.choice(["apply", "apply", "apply", "prune", "check", "restore", "bad"])
        if op == "apply":
            batch += rng.choice([0, 1, 1, 2])
            keys = rng.sample(list(genesis) + new_keys, rng.randint(1, 6))
            writes = {key: f"{key}@{batch}.{step}".encode() for key in keys}
            assert outcome(lambda: store.apply(writes, batch)) == outcome(
                lambda: reference.apply(writes, batch)
            )
        elif op == "prune":
            upto = rng.randint(NO_BATCH - 1, batch + 1)
            assert store.prune(upto) == reference.prune(upto)
        elif op == "restore":
            at = rng.randint(NO_BATCH, batch)
            restored, restored_ref = MultiVersionStore(), EagerStore()
            restored.restore_image(store.snapshot_image(at))
            restored_ref.restore_image(reference.snapshot_image(at))
            assert_same_state(restored, restored_ref, probe_keys, [NO_BATCH, at, batch])
            assert outcome(lambda: restored.restore_image({})) == outcome(
                lambda: restored_ref.restore_image({})
            )
        elif op == "bad":
            stale = {rng.choice(probe_keys): b"stale"}
            stale_batch = rng.randint(NO_BATCH - 1, batch)
            assert outcome(lambda: store.apply(stale, stale_batch)) == outcome(
                lambda: reference.apply(stale, stale_batch)
            )
        else:
            batches = [NO_BATCH - 1, NO_BATCH, batch] + [
                rng.randint(NO_BATCH, batch + 1) for _ in range(3)
            ]
            assert_same_state(store, reference, probe_keys, batches)
    assert_same_state(store, reference, probe_keys, list(range(NO_BATCH - 1, batch + 2)))


def test_genesis_store_is_not_empty_for_restore():
    store = MultiVersionStore({"a": b"1"})
    with pytest.raises(StorageError):
        store.restore_image({"b": (3, b"2")})


def test_a_proxy_base_is_shared_and_any_other_mapping_is_copied():
    data = {"a": b"1"}
    shared = MappingProxyType(dict(data))
    first, second = MultiVersionStore(shared), MultiVersionStore(shared)
    first.apply({"a": b"2"}, batch=1)
    assert second.latest("a") == VersionedValue(value=b"1", version=NO_BATCH)
    assert shared["a"] == b"1"

    copied = MultiVersionStore(data)
    data["a"] = b"changed"
    data["b"] = b"added"
    assert copied.latest("a").value == b"1"
    assert "b" not in copied
