"""Integration tests for the PBFT-style consensus engine.

The engine is exercised through a tiny replicated application (an
append-only list of strings) running on a simulated cluster, the same way
TransEdge's partition replicas use it for batches.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.bft.byzantine import (
    make_equivocating_leader,
    make_silent,
    make_vote_forger,
)
from repro.bft.engine import PbftEngine
from repro.bft.log import ReplicatedLog
from repro.bft.messages import BftMessage, Commit, PrePrepare, Prepare, ViewChange
from repro.common.config import LatencyConfig, SystemConfig
from repro.common.errors import ConsensusError, NotLeaderError
from repro.common.ids import ReplicaId
from repro.crypto.hashing import digest_of
from repro.simnet.faults import FaultInjector
from repro.simnet.node import SimEnvironment, SimNode


class ListReplica(SimNode):
    """Minimal SMR application: replicates an ordered list of strings."""

    def __init__(self, node_id, env, members, f, reject_proposals=False):
        super().__init__(node_id, env)
        self.log = ReplicatedLog()
        self.delivered: List[str] = []
        self.views_seen: List[int] = []
        self.reject_proposals = reject_proposals
        self.engine = PbftEngine(
            owner=self,
            partition=node_id.partition,
            members=members,
            fault_tolerance=f,
            application=self,
            digest_fn=lambda proposal: digest_of(["list-entry", proposal]),
        )
        self.register_handler(BftMessage, lambda m, s: self.engine.handle(m, s))

    # ConsensusApplication interface -----------------------------------------

    def validate_proposal(self, seq, proposal):
        return not self.reject_proposals

    def deliver(self, seq, proposal, certificate):
        self.log.append(seq, proposal, certificate)
        self.delivered.append(proposal)

    def on_view_change(self, new_view, new_leader):
        self.views_seen.append(new_view)


def build_cluster(f=1, n_extra=0, env=None):
    config = SystemConfig(
        num_partitions=1,
        fault_tolerance=f,
        latency=LatencyConfig(jitter_fraction=0.0),
    )
    env = env or SimEnvironment(config)
    members = [ReplicaId(0, i) for i in range(3 * f + 1 + n_extra)]
    replicas = [ListReplica(m, env, members, f) for m in members]
    return env, replicas


class TestHappyPath:
    def test_single_proposal_delivered_everywhere(self):
        env, replicas = build_cluster()
        leader = replicas[0]
        seq = leader.engine.propose("value-0")
        env.simulator.run_until_idle()
        assert seq == 0
        assert all(r.delivered == ["value-0"] for r in replicas)

    def test_sequence_of_proposals_delivered_in_order(self):
        env, replicas = build_cluster()
        leader = replicas[0]
        for i in range(5):
            leader.engine.propose(f"value-{i}")
            env.simulator.run_until_idle()
        expected = [f"value-{i}" for i in range(5)]
        assert all(r.delivered == expected for r in replicas)
        assert all(r.log.last_seq == 4 for r in replicas)

    def test_pipelined_proposals_still_deliver_in_order(self):
        env, replicas = build_cluster()
        leader = replicas[0]
        for i in range(4):
            leader.engine.propose(f"v{i}")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["v0", "v1", "v2", "v3"] for r in replicas)

    def test_certificates_verify_against_cluster(self):
        env, replicas = build_cluster()
        config = env.config
        leader = replicas[0]
        leader.engine.propose("certified")
        env.simulator.run_until_idle()
        for replica in replicas:
            certificate = replica.log.get(0).certificate
            assert certificate.verify(
                env.registry, leader.engine.members, required=config.certificate_size
            )
            assert len(certificate.signatures) >= config.quorum_size

    def test_non_leader_cannot_propose(self):
        _, replicas = build_cluster()
        with pytest.raises(NotLeaderError):
            replicas[1].engine.propose("nope")

    def test_larger_cluster_f2(self):
        env, replicas = build_cluster(f=2)
        assert len(replicas) == 7
        replicas[0].engine.propose("seven-node-value")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["seven-node-value"] for r in replicas)

    def test_cluster_too_small_for_f_rejected(self):
        env, _ = build_cluster()
        members = [ReplicaId(0, i) for i in range(90, 93)]  # only 3 members
        with pytest.raises(ConsensusError):
            ListReplica(members[0], env, members, f=1)


class TestFaultTolerance:
    def test_progress_with_one_silent_replica(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[3].node_id)
        replicas[0].engine.propose("still-works")
        env.simulator.run_until_idle()
        honest = replicas[:3]
        assert all(r.delivered == ["still-works"] for r in honest)

    def test_no_progress_with_too_many_silent_replicas(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[2].node_id)
        make_silent(injector, replicas[3].node_id)
        replicas[0].engine.propose("cannot-commit")
        env.simulator.run_until_idle()
        assert all(r.delivered == [] for r in replicas)

    def test_vote_forger_does_not_block_progress(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_vote_forger(injector, replicas[1].node_id)
        replicas[0].engine.propose("value")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["value"] for r in replicas if r is not replicas[1])

    def test_equivocating_leader_cannot_commit_conflicting_values(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_equivocating_leader(
            injector,
            replicas[0].node_id,
            confused_replicas=[replicas[2].node_id, replicas[3].node_id],
            corrupt_proposal=lambda proposal: proposal + "-conflicting",
        )
        replicas[0].engine.propose("honest-value")
        env.simulator.run_until_idle()
        # The confused replicas reject the pre-prepare (digest mismatch), so
        # no quorum forms for either value and nothing is delivered — safety
        # is preserved even though liveness is lost for this instance.
        delivered_values = {value for r in replicas for value in r.delivered}
        assert "honest-value-conflicting" not in delivered_values
        assert all(len(r.delivered) <= 1 for r in replicas)

    def test_replica_rejecting_validation_does_not_prepare(self):
        env, replicas = build_cluster()
        # Three of four replicas reject the proposal: no 2f+1 prepare quorum.
        for replica in replicas[1:]:
            replica.reject_proposals = True
        replicas[0].engine.propose("rejected-by-app")
        env.simulator.run_until_idle()
        assert all(r.delivered == [] for r in replicas)


class TestViewChange:
    def test_view_change_elects_next_leader(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        # Honest replicas suspect the silent leader.
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        for replica in replicas[1:]:
            assert replica.engine.view == 1
            assert replica.engine.current_leader == ReplicaId(0, 1)
            assert replica.views_seen and replica.views_seen[-1] == 1

    def test_new_leader_can_propose_after_view_change(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        new_leader = replicas[1]
        assert new_leader.engine.is_leader
        new_leader.engine.propose("post-view-change")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["post-view-change"] for r in replicas[1:])

    def test_minority_suspicion_does_not_change_view(self):
        env, replicas = build_cluster()
        replicas[3].engine.suspect_leader()
        env.simulator.run_until_idle()
        assert all(r.engine.view == 0 for r in replicas)

    def test_forged_new_view_without_votes_is_ignored(self):
        # A byzantine replica whose turn the rotation has not reached cannot
        # summon the cluster to "its" view: a NewView announcement must carry
        # a verifiable 2f+1 view-change vote certificate.
        from repro.bft.messages import NewView

        env, replicas = build_cluster()
        forger = replicas[1]  # leader of view 1, but nobody voted
        announce = NewView(view=1, votes=())
        announce.signature = forger.signer.sign(announce.signing_payload())
        forger.broadcast([r.node_id for r in replicas if r is not forger], announce)
        env.simulator.run_until_idle()
        assert all(r.engine.view == 0 for r in replicas if r is not forger)

    def test_view_certificate_transferable_after_view_change(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        for replica in replicas[1:]:
            certificate = replica.engine.view_certificate
            assert certificate is not None and certificate.view == 1
            assert certificate.verify(
                env.registry, replica.engine.members, replica.engine.quorum
            )
        # Re-adopting the current view from the held certificate is a no-op
        # success (the transferable form a state-transfer responder sends).
        assert replicas[1].engine.adopt_view(1, replicas[1].engine.view_certificate)

    def test_delivery_continues_across_views(self):
        env, replicas = build_cluster()
        replicas[0].engine.propose("before")
        env.simulator.run_until_idle()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        replicas[1].engine.propose("after")
        env.simulator.run_until_idle()
        for replica in replicas[1:]:
            assert replica.delivered == ["before", "after"]


def _brute_has_pending_work(engine):
    """The predicate as a walk over every instance the engine holds."""
    if engine._buffered_pre_prepares or engine._pending_deliveries:
        return True
    for seq, instance in engine._instances.items():
        if seq < engine._next_deliver_seq or instance.decided:
            continue
        if instance.view != engine.view:
            continue
        if (
            instance.pre_prepared
            or instance.prepares.count() > 0
            or instance.commits.count() > 0
        ):
            return True
    return False


def _brute_is_behind(engine):
    if engine._buffered_pre_prepares or engine._pending_deliveries:
        return True
    for seq, instance in engine._instances.items():
        if seq < engine._next_deliver_seq or instance.decided:
            continue
        if not instance.pre_prepared and instance.commits.reached(engine.quorum):
            return True
    return False


def _assert_scans_match(engine):
    assert engine.has_pending_work() == _brute_has_pending_work(engine)
    assert engine.is_behind() == _brute_is_behind(engine)
    # The scanned dict is exactly the undelivered part of ``_instances``.
    cursor = engine._next_deliver_seq
    assert engine._undelivered == {
        seq: inst for seq, inst in engine._instances.items() if seq >= cursor
    }


def _signed(replica, message):
    message.signature = replica.signer.sign(message.signing_payload())
    return message


def _value(seq):
    return f"v{seq}"


def _digest(seq):
    return digest_of(["list-entry", _value(seq)])


class TestProgressScans:
    """``is_behind``/``has_pending_work`` scan only undelivered instances."""

    @pytest.mark.parametrize("seed", range(6))
    def test_scans_match_brute_force_under_random_traffic(self, seed):
        env, replicas = build_cluster()
        target = replicas[3]
        # install_checkpoint skips sequence numbers, which the replicated
        # log rejects; this replica only records what it delivers.
        target.deliver = lambda seq, proposal, certificate: target.delivered.append(proposal)
        engine = target.engine
        by_id = {r.node_id: r for r in replicas}
        rng = random.Random(seed)
        seen = {(False, False): 0, (True, False): 0, (True, True): 0}

        def vote_seq():
            return max(0, engine._next_deliver_seq + rng.choice((-1, 0, 0, 0, 1, 1, 2, 3)))

        for _ in range(500):
            step = rng.random()
            view = engine.view
            if step < 0.25:
                seq = engine._next_deliver_seq + (0 if rng.random() < 0.85 else rng.randrange(1, 3))
                leader = by_id[engine.leader_of_view(view)]
                message = PrePrepare(view=view, seq=seq, digest=_digest(seq), proposal=_value(seq))
                engine.handle(_signed(leader, message), leader.node_id)
            elif step < 0.75:
                seq = vote_seq()
                sender = rng.choice(replicas)
                digest = _digest(seq) if rng.random() < 0.9 else b"wrong"
                kind = Prepare if step < 0.5 else Commit
                message_view = view if rng.random() < 0.95 else view + 1
                message = kind(view=message_view, seq=seq, digest=digest)
                engine.handle(_signed(sender, message), sender.node_id)
            elif step < 0.84:
                engine.compact_below(engine._next_deliver_seq + rng.randrange(-3, 2))
            elif step < 0.9:
                engine.install_checkpoint(engine._next_deliver_seq - 1 + rng.randrange(0, 4))
            elif step < 0.91:
                for voter in replicas[:3]:
                    vote = ViewChange(view=view + 1, last_delivered=-1)
                    engine.handle(_signed(voter, vote), voter.node_id)
            else:
                sender = rng.choice(replicas[:3])
                kind = rng.choice((Prepare, Commit))
                far = kind(view=view, seq=10**9, digest=b"far")
                engine.handle(_signed(sender, far), sender.node_id)
            _assert_scans_match(engine)
            if not (engine._buffered_pre_prepares or engine._pending_deliveries):
                # Only here do the predicates reach their instance scans.
                seen[(engine.has_pending_work(), engine.is_behind())] += 1
        # Every outcome of both scans was reached, so the match is real.
        assert min(seen.values()) > 0
        assert len(target.delivered) > 3 and engine.view > 0

    def test_far_future_vote_does_not_walk_the_gap(self):
        env, replicas = build_cluster()
        for i in range(3):
            replicas[0].engine.propose(f"value-{i}")
            env.simulator.run_until_idle()
        engine = replicas[3].engine
        assert replicas[3].delivered == ["value-0", "value-1", "value-2"]
        assert not engine.has_pending_work() and not engine.is_behind()
        byzantine = replicas[2]
        for kind in (Prepare, Commit):
            message = kind(view=0, seq=10**9, digest=b"far-future")
            engine.handle(_signed(byzantine, message), byzantine.node_id)
        _assert_scans_match(engine)
        assert engine.has_pending_work()  # votes in the current view
        assert not engine.is_behind()  # one commit is no quorum
        # The delivered instances stay (rebroadcast serves them) but are not
        # scanned; the scan visits one entry, however wide the gap.
        assert set(engine._instances) == {0, 1, 2, 10**9}
        assert list(engine._undelivered) == [10**9]
        replicas[0].engine.propose("value-3")
        env.simulator.run_until_idle()
        _assert_scans_match(engine)
        assert list(engine._undelivered) == [10**9]
