"""Multi-version key-value store.

Each partition replica keeps its data in a :class:`MultiVersionStore`.  Every
visible write is tagged with the batch number in which it became visible, so
the store can answer three kinds of reads:

* ``latest`` — the current committed value and its version (used when serving
  client reads for read-write transactions and round-1 read-only requests);
* ``as_of`` — the value visible at a given batch number (used for round-2
  read-only requests that need an older or newer-but-specific snapshot);
* ``version_of`` — just the version, used by optimistic validation
  (Definition 3.1, rule 1: a read is stale when the key's latest version is
  newer than the version the transaction read).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.common.errors import StorageError, UnknownKeyError
from repro.common.ids import NO_BATCH, BatchNumber
from repro.common.types import Key, Value, VersionedValue


@dataclass
class _VersionChain:
    """Versions of one key, ordered by ascending batch number."""

    versions: List[BatchNumber]
    values: List[Value]

    def latest(self) -> VersionedValue:
        return VersionedValue(value=self.values[-1], version=self.versions[-1])

    def as_of(self, batch: BatchNumber) -> Optional[VersionedValue]:
        """Newest version with ``version <= batch`` (None when none exists)."""
        index = bisect.bisect_right(self.versions, batch) - 1
        if index < 0:
            return None
        return VersionedValue(value=self.values[index], version=self.versions[index])

    def append(self, batch: BatchNumber, value: Value) -> None:
        if self.versions and batch < self.versions[-1]:
            raise StorageError(
                f"version {batch} is older than latest version {self.versions[-1]}"
            )
        if self.versions and batch == self.versions[-1]:
            # Two writes in the same batch: last writer wins.
            self.values[-1] = value
            return
        self.versions.append(batch)
        self.values.append(value)


class MultiVersionStore:
    """Versioned key/value storage for one partition.

    ``genesis`` is the preloaded data, visible at the reserved version
    ``NO_BATCH``.  It stays one read-only base mapping: a
    :class:`~types.MappingProxyType` is kept as given, so every replica of
    a partition can share one, and any other mapping is copied first.  A
    key's version chain is created on its first write, starting from its
    genesis value, so reads, :meth:`prune` and the key order (genesis keys
    first, then other keys in first-write order) are exactly those of a
    store that creates every chain up front.
    """

    def __init__(self, genesis: Optional[Mapping[Key, Value]] = None) -> None:
        if not isinstance(genesis, MappingProxyType):
            genesis = MappingProxyType(dict(genesis or {}))
        self._genesis: Mapping[Key, Value] = genesis
        self._chains: Dict[Key, _VersionChain] = {}
        #: Keys outside ``genesis``, in first-write order.
        self._new_keys: List[Key] = []

    def _chain(self, key: Key) -> Optional[_VersionChain]:
        """``key``'s chain; a transient genesis-only one if never written."""
        chain = self._chains.get(key)
        if chain is None and key in self._genesis:
            chain = _VersionChain(versions=[NO_BATCH], values=[self._genesis[key]])
        return chain

    # -- writes -------------------------------------------------------------

    def apply(self, writes: Mapping[Key, Value], batch: BatchNumber) -> None:
        """Make ``writes`` visible at version ``batch``."""
        if batch <= NO_BATCH:
            raise StorageError(f"cannot apply writes at reserved version {batch}")
        for key, value in writes.items():
            chain = self._chains.get(key)
            if chain is None:
                chain = self._chain(key)
                if chain is None:
                    chain = _VersionChain(versions=[], values=[])
                    self._new_keys.append(key)
                self._chains[key] = chain
            chain.append(batch, value)

    # -- checkpointing support ----------------------------------------------

    def _all_chains(self) -> Iterator[Tuple[Key, _VersionChain]]:
        """``(key, chain)`` for every key, in key order (see :meth:`_chain`)."""
        for key in self.keys():
            yield key, self._chain(key)

    def _versions_as_of(self, batch: BatchNumber) -> Iterator[Tuple[Key, VersionedValue]]:
        """Newest version ``<= batch`` of every key that has one, in key order."""
        for key, chain in self._all_chains():
            versioned = chain.as_of(batch)
            if versioned is not None:
                yield key, versioned

    def snapshot_image(self, batch: BatchNumber) -> Dict[Key, Tuple[BatchNumber, Value]]:
        """Latest ``(version, value)`` of every key visible at ``batch``.

        This is the restorable form of the store used by checkpoint images:
        unlike :meth:`snapshot_as_of` it keeps the version of each value, so a
        replica restored from the image answers ``version_of``/``as_of``
        queries identically to one that processed the whole log.
        """
        return {
            key: (versioned.version, versioned.value)
            for key, versioned in self._versions_as_of(batch)
        }

    def restore_image(self, image: Mapping[Key, Tuple[BatchNumber, Value]]) -> None:
        """Rebuild an empty store from a checkpoint image (one version per key)."""
        if len(self):
            raise StorageError("restore_image requires an empty store")
        for key, (version, value) in image.items():
            self._chains[key] = _VersionChain(versions=[version], values=[value])
            self._new_keys.append(key)

    def prune(self, upto: BatchNumber) -> int:
        """Drop versions older than the newest version ``<= upto``.

        After pruning, ``as_of(key, batch)`` stays exact for every
        ``batch >= upto``; older snapshots resolve to the oldest retained
        version.  Returns the number of versions removed.  A key never
        written holds only its genesis version, so there is nothing to drop.
        """
        pruned = 0
        for chain in self._chains.values():
            cut = bisect.bisect_right(chain.versions, upto) - 1
            if cut > 0:
                del chain.versions[:cut]
                del chain.values[:cut]
                pruned += cut
        return pruned

    def max_chain_length(self) -> int:
        """Length of the longest version chain (0 for an empty store)."""
        return max((len(chain.versions) for _, chain in self._all_chains()), default=0)

    def total_versions(self) -> int:
        """Total number of stored versions across all keys."""
        return sum(len(chain.versions) for _, chain in self._all_chains())

    # -- reads --------------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._genesis or key in self._chains

    def __len__(self) -> int:
        return len(self._genesis) + len(self._new_keys)

    def keys(self) -> Iterable[Key]:
        return (*self._genesis, *self._new_keys)

    def latest(self, key: Key) -> VersionedValue:
        chain = self._chain(key)
        if chain is None:
            raise UnknownKeyError(key)
        return chain.latest()

    def get(self, key: Key) -> Optional[VersionedValue]:
        chain = self._chain(key)
        if chain is None:
            return None
        return chain.latest()

    def version_of(self, key: Key) -> BatchNumber:
        """Latest visible version of ``key`` (``NO_BATCH`` for unknown keys).

        A key never written is at its genesis version, ``NO_BATCH`` too.
        """
        chain = self._chains.get(key)
        if chain is None:
            return NO_BATCH
        return chain.versions[-1]

    def as_of(self, key: Key, batch: BatchNumber) -> Optional[VersionedValue]:
        """Value of ``key`` as of batch ``batch`` (inclusive)."""
        chain = self._chain(key)
        if chain is None:
            return None
        return chain.as_of(batch)

    def iter_items_as_of(self, batch: BatchNumber) -> Iterator[Tuple[Key, Value]]:
        """Iterate the ``(key, value)`` pairs visible at batch ``batch``.

        The streaming primitive behind :meth:`snapshot_as_of`; use it
        directly when a single pass suffices and no dict is needed.
        """
        for key, versioned in self._versions_as_of(batch):
            yield key, versioned.value

    def snapshot_as_of(self, batch: BatchNumber) -> Dict[Key, Value]:
        """Materialise the state visible at batch ``batch``."""
        return dict(self.iter_items_as_of(batch))

    def history(self, key: Key) -> Tuple[Tuple[BatchNumber, Value], ...]:
        """Full version history of ``key`` (oldest first)."""
        chain = self._chain(key)
        if chain is None:
            raise UnknownKeyError(key)
        return tuple(zip(chain.versions, chain.values))
