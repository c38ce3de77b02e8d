"""Controller failure detector + reconfigure() under injected crashes.

These tests drive the controller through the repro.chaos fault machinery
(scheduled ``fault`` events replayed by a FaultInjector) rather than
inline crash calls, covering the failure-detection path end to end:
session expiry -> membership sweep -> seal -> new term.
"""

from repro.chaos.faults import FaultInjector, fault
from repro.core.cluster import BokiCluster
from repro.core.controller import ReconfigurationFailed
from repro.core.types import seqnum_term


def _drive(cluster, gen, limit=200.0):
    return cluster.drive(gen, limit=limit)


class TestFailureDetector:
    def test_injected_primary_crash_triggers_reconfiguration(self):
        c = BokiCluster(num_sequencer_nodes=6, use_coord_sessions=True)
        c.boot()
        primary = c.term.assignment(0).primary
        FaultInjector(c, [fault(0.1, "crash", primary)]).start()

        def flow():
            book = c.logbook(1)
            yield from book.append("pre-crash")
            # Session timeout (2s) + sweep + reconfiguration.
            yield c.env.timeout(6.0)
            return (yield from book.append("post-crash"))

        seqnum = _drive(c, flow())
        assert seqnum_term(seqnum) == 2
        assert c.controller.reconfig_count == 1
        assert primary not in c.controller.current_term.assignment(0).sequencers

    def test_spare_sequencer_crash_does_not_reconfigure(self):
        """A crash of a sequencer outside the serving set expires its
        session but must not trigger a reconfiguration."""
        c = BokiCluster(num_sequencer_nodes=6, use_coord_sessions=True)
        c.boot()
        in_use = set(c.term.assignment(0).sequencers)
        spare = next(q.name for q in c.sequencer_nodes if q.name not in in_use)
        FaultInjector(c, [fault(0.1, "crash", spare)]).start()

        def flow():
            yield c.env.timeout(6.0)
            book = c.logbook(1)
            return (yield from book.append("still-term-1"))

        seqnum = _drive(c, flow())
        assert seqnum_term(seqnum) == 1
        assert c.controller.reconfig_count == 0

    def test_back_to_back_primary_crashes(self):
        """Crash the primary, let the detector reconfigure, then crash the
        *new* primary: the detector must reconfigure again."""
        c = BokiCluster(num_sequencer_nodes=9, use_coord_sessions=True)
        c.boot()
        first_primary = c.term.assignment(0).primary
        injector = FaultInjector(c, [fault(0.1, "crash", first_primary)])
        injector.start()

        def flow():
            book = c.logbook(1)
            yield from book.append("term-1")
            yield c.env.timeout(6.0)
            assert c.controller.current_term.term_id == 2
            second_primary = c.controller.current_term.assignment(0).primary
            c.net.nodes[second_primary].crash()
            yield c.env.timeout(6.0)
            return (yield from book.append("term-3"))

        seqnum = _drive(c, flow())
        assert seqnum_term(seqnum) == 3
        assert c.controller.reconfig_count == 2

    def test_injected_storage_crash_excluded_from_next_term(self):
        c = BokiCluster(
            num_storage_nodes=5, num_sequencer_nodes=3, use_coord_sessions=True
        )
        c.boot()
        victim = c.storage_nodes[0].name
        FaultInjector(c, [fault(0.1, "crash", victim)]).start()

        def flow():
            book = c.logbook(1)
            yield from book.append("pre")
            yield c.env.timeout(6.0)
            yield from book.append("post")
            tail = yield from book.check_tail()
            return tail.data

        assert _drive(c, flow()) == "post"
        assert c.controller.reconfig_count >= 1
        for backers in c.controller.current_term.assignment(0).shard_storage.values():
            assert victim not in backers


class TestReconfigureUnderCrashes:
    def test_seal_tolerates_minority_sequencer_crash(self):
        """Sealing needs only a quorum of metalog replicas: an explicit
        reconfigure right after one secondary dies must still succeed."""
        c = BokiCluster(num_sequencer_nodes=6)
        c.boot()
        asg = c.term.assignment(0)
        secondary = next(s for s in asg.sequencers if s != asg.primary)

        def flow():
            book = c.logbook(1)
            yield from book.append("pre")
            c.net.nodes[secondary].crash()
            new_term = yield from c.controller.reconfigure(
                sequencer_names=["seq-3", "seq-4", "seq-5"]
            )
            assert new_term.term_id == 2
            return (yield from book.append("post"))

        seqnum = _drive(c, flow())
        assert seqnum_term(seqnum) == 2
        assert c.controller.reconfig_count == 1

    def test_seal_quorum_loss_raises(self):
        """With a majority of the serving sequencers dead, sealing cannot
        reach quorum and reconfigure() must fail loudly."""
        c = BokiCluster(num_sequencer_nodes=6)
        c.boot()
        asg = c.term.assignment(0)
        majority = asg.sequencers[:2]

        def flow():
            book = c.logbook(1)
            yield from book.append("pre")
            for name in majority:
                c.net.nodes[name].crash()
            try:
                yield from c.controller.reconfigure(
                    sequencer_names=["seq-3", "seq-4", "seq-5"]
                )
            except ReconfigurationFailed:
                return "failed"
            return "succeeded"

        assert _drive(c, flow()) == "failed"
        assert c.controller.reconfig_count == 0

    def test_appends_resume_after_detector_driven_reconfig(self):
        """Appends issued while the primary is dead (before detection) are
        retried into the new term; none are lost or duplicated."""
        c = BokiCluster(num_sequencer_nodes=6, use_coord_sessions=True)
        c.boot()
        primary = c.term.assignment(0).primary
        FaultInjector(c, [fault(0.05, "crash", primary)]).start()
        results = []

        def appender():
            book = c.logbook(1)
            for i in range(12):
                seqnum = yield from book.append(f"rec-{i}")
                results.append(seqnum)
                yield c.env.timeout(0.02)

        proc = c.env.process(appender())
        c.env.run_until(proc, limit=200.0)
        assert len(results) == 12
        assert results == sorted(results)
        assert len(set(results)) == 12
        # The run straddled the reconfiguration: both terms appear.
        assert {seqnum_term(s) for s in results} == {1, 2}
