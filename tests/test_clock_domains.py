"""Clock-domain semantics: monotonicity, merge laws, global time.

Seeded property tests for the per-node simulated-time model
(:mod:`repro.simclock`): every domain's clock is monotone under any mix of
charges and merges, max-merge is commutative and idempotent, and the
cluster wall clock (``global_now``) never regresses -- including across
random shard interleavings of a real sharded deployment and across a
replicated shard's failover/fail-back cycle.  The group's cluster-wide
charge statistics are the read-time sum of its domains' statistics.
"""

import random

import pytest

from repro.simclock import (
    ClockDomainGroup,
    CostModel,
    SimClock,
    rendezvous,
)

PRIMITIVES = ["sql_statement_base", "row_write", "db_dlfm_message",
              "disk_seek", "token_generate", "log_write"]


class TestMergeLaws:
    def test_sync_to_never_moves_backwards(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.sync_to(1.0)
        assert clock.now() == pytest.approx(5.0)
        clock.sync_to(9.0)
        assert clock.now() == pytest.approx(9.0)

    def test_merge_commutativity(self):
        """merge(a, b) and merge(b, a) land both clocks on the same instant."""

        for first, second in [(1.0, 7.0), (7.0, 1.0), (3.0, 3.0)]:
            a1, b1 = SimClock(start=first), SimClock(start=second)
            a2, b2 = SimClock(start=first), SimClock(start=second)
            t_ab = rendezvous(a1, b1)
            t_ba = rendezvous(b2, a2)
            assert t_ab == pytest.approx(t_ba)
            assert a1.now() == b1.now() == pytest.approx(max(first, second))
            assert a2.now() == b2.now() == pytest.approx(max(first, second))

    def test_merge_idempotent_and_associative_to_max(self):
        rng = random.Random(1234)
        starts = [rng.uniform(0, 100) for _ in range(5)]
        clocks = [SimClock(start=value) for value in starts]
        rng.shuffle(clocks)
        instant = rendezvous(*clocks)
        assert instant == pytest.approx(max(starts))
        # a second merge is a no-op
        assert rendezvous(*clocks) == pytest.approx(instant)

    def test_rendezvous_ignores_none(self):
        clock = SimClock(start=2.0)
        assert rendezvous(None, clock, None) == pytest.approx(2.0)
        assert rendezvous() == 0.0

    def test_overlap_gathers_max_not_sum(self):
        clock = SimClock(start=10.0)
        with clock.overlap():
            assert clock.send_time() == pytest.approx(10.0)
            clock.receive(13.0)
            clock.receive(11.0)
            # send time stays anchored at the fork
            assert clock.send_time() == pytest.approx(10.0)
        assert clock.now() == pytest.approx(13.0)

    def test_nested_overlap_frames(self):
        clock = SimClock(start=1.0)
        with clock.overlap():
            clock.receive(4.0)
            with clock.overlap():
                clock.receive(9.0)
            # the inner gather feeds the outer frame, not now()
            assert clock.now() == pytest.approx(1.0)
        assert clock.now() == pytest.approx(9.0)


class TestDomainGroupProperties:
    def test_random_interleaving_keeps_domains_monotone(self):
        """Charges, one-way syncs and barriers never move any clock back."""

        rng = random.Random(20260730)
        group = ClockDomainGroup(CostModel())
        domains = [group.domain(f"node{index}") for index in range(6)]
        last_seen = {domain.name: domain.now() for domain in domains}
        last_global = group.global_now()
        for _ in range(2000):
            action = rng.randrange(4)
            if action == 0:
                domain = rng.choice(domains)
                domain.charge(rng.choice(PRIMITIVES), times=rng.randrange(1, 4))
            elif action == 1:
                sender, receiver = rng.sample(domains, 2)
                receiver.sync_to(sender.send_time())
            elif action == 2:
                rendezvous(*rng.sample(domains, rng.randrange(2, 4)))
            else:
                group.barrier()
            for domain in domains:
                assert domain.now() >= last_seen[domain.name]
                last_seen[domain.name] = domain.now()
            assert group.global_now() >= last_global
            assert group.global_now() == pytest.approx(
                max(domain.now() for domain in domains))
            last_global = group.global_now()

    def test_group_advance_passes_idle_time_cluster_wide(self):
        group = ClockDomainGroup(CostModel())
        a, b = group.domain("a"), group.domain("b")
        b.charge("disk_seek")
        gap = b.now() - a.now()
        a.advance(2.0)
        assert a.now() == pytest.approx(2.0)
        assert b.now() - a.now() == pytest.approx(gap)

    def test_advance_local_moves_only_one_domain(self):
        group = ClockDomainGroup(CostModel())
        a, b = group.domain("a"), group.domain("b")
        a.advance_local(3.0)
        assert a.now() == pytest.approx(3.0)
        assert b.now() == 0.0

    def test_serial_group_collapses_to_one_timeline(self):
        group = ClockDomainGroup(CostModel(), serial=True)
        assert group.domain("host") is group.domain("shard0")
        group.domain("host").charge("disk_seek")
        assert group.global_now() == pytest.approx(group.domain("x").now())


def _charge_program(group, seed: int):
    """Run a seeded random mix of ``charge``/``charge_run``/
    ``charge_batch`` and channel traffic over *group*'s domains, creating
    two domains only after a ``group.stats`` reference was taken.

    Returns ``(early_stats_reference, {label: charges_issued})``.
    """

    from collections import Counter

    from repro.ipc.channel import Channel
    from repro.ipc.daemon import Daemon

    class Worker(Daemon):
        def __init__(self, name, clock):
            super().__init__(name, clock)
            self.register("work", self._work)

        def _work(self, cost=1):
            self.clock.charge("row_write", times=cost)
            return {}

    rng = random.Random(seed)
    issued = Counter()
    early = group.stats
    domains = [group.domain(f"node{index}") for index in range(3)]
    late = ["late0", "late1"]

    def channel_to(domain):
        # (channel, crosses domains): a posted message costs the sender a
        # ``message_send`` only when the worker runs on another domain.
        worker = Worker(f"worker-{domain.name}", domain)
        return (Channel(worker, domains[0],
                        latency_primitive="db_dlfm_message"),
                domain is not domains[0])

    channels = [channel_to(domain) for domain in domains[1:]]
    for step in range(400):
        if late and step % 150 == 149:
            domains.append(group.domain(late.pop(0)))
            channels.append(channel_to(domains[-1]))
        domain = rng.choice(domains)
        action = rng.randrange(5)
        if action == 0:
            primitive = rng.choice(PRIMITIVES)
            label = rng.choice([None, f"dlfm.{primitive}"])
            domain.charge(primitive, times=rng.randrange(1, 4), label=label)
            issued[label or primitive] += 1
        elif action == 1:
            primitive = rng.choice(PRIMITIVES)
            times = rng.randrange(0, 6)
            domain.charge_run(primitive, times, scale=0.5)
            if times:
                issued[primitive] += times
        elif action == 2:
            events = [(rng.choice(PRIMITIVES), rng.choice([1.0, 0.1]),
                       rng.choice([None, "batched"]))
                      for _ in range(rng.randrange(1, 4))]
            cycles = rng.randrange(0, 5)
            domain.charge_batch(domain.compile_charges(events), cycles)
            for primitive, _, label in events:
                if cycles:
                    issued[label or primitive] += cycles
        else:
            channel, cross = rng.choice(channels)
            cost = rng.randrange(1, 3)
            if action == 3:
                channel.request("work", cost=cost)
            else:
                channel.post("work", cost=cost)
                if cross:
                    issued["message_send"] += 1
            issued["db_dlfm_message"] += 1
            issued["daemon_dispatch"] += 1
            issued["row_write"] += 1
    assert not late
    return early, issued


class TestGroupStatsAreDerived:
    """``ClockDomainGroup.stats`` is a live read-time sum over the group's
    domains: counts are exact, totals are the domain totals summed, and a
    reference taken before any work sees everything done afterwards."""

    @pytest.mark.parametrize("seed", [3, 20261018, 777])
    def test_group_stats_sum_every_domain(self, seed):
        group = ClockDomainGroup(CostModel())
        early, issued = _charge_program(group, seed)
        stats = group.stats
        assert set(stats.labels()) == set(issued)
        for label, count in issued.items():
            assert stats.count(label) == count, label
            assert early.count(label) == count, label
            assert stats.total(label) == sum(
                domain.stats.total(label)
                for domain in group.domains.values()), label
        assert early.total_count() == sum(issued.values())
        assert early.as_dict() == stats.as_dict()
        by_domain = group.stats_by_domain()
        assert {"late0", "late1"} <= set(by_domain)
        assert sum(cells.get("row_write", {}).get("count", 0)
                   for cells in by_domain.values()) == issued["row_write"]

    @pytest.mark.parametrize("seed", [3, 20261018, 777])
    def test_single_timeline_groups_report_that_timeline(self, seed):
        serial = ClockDomainGroup(CostModel(), serial=True)
        early, issued = _charge_program(serial, seed)
        timeline = serial.domain("any")
        assert early.charges == timeline.stats.charges
        assert early.total_count() == sum(issued.values())

        root = SimClock(CostModel())
        adopted = ClockDomainGroup(root=root)
        early, issued = _charge_program(adopted, seed)
        assert adopted.domain("any") is root
        assert early.charges == root.stats.charges
        assert early.total_count() == sum(issued.values())


class TestShardedDeploymentTime:
    def test_global_now_never_regresses_across_random_shard_interleavings(self):
        """Random link/read/commit interleavings over a sharded deployment
        keep every domain monotone and the cluster wall clock non-decreasing."""

        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        rng = random.Random(99)
        deployment = ShardedDataLinksDeployment(3, group_commit_window=2)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(recovery=False)),
        ], primary_key=("doc_id",)))
        session = deployment.session("user", uid=4001)
        clocks = deployment.clocks
        last_global = clocks.global_now()
        last_local = {name: domain.now()
                      for name, domain in clocks.domains.items()}
        urls = []
        for step in range(40):
            action = rng.randrange(3) if urls else 0
            if action == 0:
                path = f"/dir{rng.randrange(6)}/doc{step:04d}.dat"
                url = deployment.put_file(session, path, b"x" * 256)
                host_txn = deployment.begin()
                deployment.engine.insert(
                    "docs", {"doc_id": step, "body": url}, host_txn)
                deployment.commit(host_txn)
                urls.append(url)
            elif action == 1:
                deployment.read_url(session, rng.choice(urls))
            else:
                deployment.drain()
            assert clocks.global_now() >= last_global
            last_global = clocks.global_now()
            for name, domain in clocks.domains.items():
                assert domain.now() >= last_local.get(name, 0.0)
                last_local[name] = domain.now()
        # host commits synchronize through every enlisted shard, so the host
        # domain can never be ahead of the cluster wall clock by definition
        assert deployment.clock.now() <= clocks.global_now() + 1e-12

    def test_failover_merge_does_not_regress_time(self):
        """Promotion and fail-back (cross-domain merges) keep time monotone."""

        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        deployment = ShardedDataLinksDeployment(2, replication=True,
                                                group_commit_window=1)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(recovery=False)),
        ], primary_key=("doc_id",)))
        session = deployment.session("user", uid=4001)
        url = deployment.put_file(session, "/a/doc.dat", b"payload")
        host_txn = deployment.begin()
        deployment.engine.insert("docs", {"doc_id": 1, "body": url}, host_txn)
        deployment.commit(host_txn)
        shard = deployment.shard_of("/a/doc.dat")
        clocks = deployment.clocks
        before = {name: domain.now() for name, domain in clocks.domains.items()}
        global_before = clocks.global_now()
        deployment.crash_shard(shard)
        deployment.fail_over(shard)
        assert deployment.read_url(session, url) == b"payload"
        deployment.fail_back(shard)
        assert deployment.read_url(session, url) == b"payload"
        assert clocks.global_now() >= global_before
        for name, domain in clocks.domains.items():
            assert domain.now() >= before.get(name, 0.0)


class TestChannelTrafficProperties:
    """Seeded random channel traffic: synchronous requests, pipelined
    posts, ``post_group`` batches, handler failures, dead-daemon refusals
    and scatter-gather windows, over cross-domain and same-domain
    channels.  Every domain's clock is monotone, each domain's charge
    cells count exactly the messages it sent or served, and handler
    errors raise."""

    def _run_traffic(self, seed: int, *, single_posts_as_groups=False) -> dict:
        from repro.errors import DaemonUnavailableError, ReproError
        from repro.ipc.channel import Channel
        from repro.ipc.daemon import Daemon

        group = ClockDomainGroup(CostModel())
        host = group.domain("host")

        class Worker(Daemon):
            def __init__(self, name, clock):
                super().__init__(name, clock)
                self.register("work", self._work)
                self.register("boom", self._boom)

            def _work(self, cost=1):
                self.clock.charge("row_write", times=cost)
                return {"done": cost}

            def _boom(self):
                self.clock.charge("disk_seek")
                raise ReproError("statement-time failure")

            def handle_lazy(self, cost=1):
                # Method-style handler: resolved through ``dispatch``'s
                # ``handle_<kind>`` fallback and cached on first use.
                self.clock.charge("row_read", times=cost)
                return {"lazy": cost}

        workers = [Worker(f"shard{index}", group.domain(f"shard{index}"))
                   for index in range(3)]
        local = Worker("local", host)     # same-domain channel (no merge)
        channels = [Channel(worker, host,
                            latency_primitive="db_dlfm_message")
                    for worker in workers]
        channels.append(Channel(local,
                                host, latency_primitive="upcall_round_trip"))
        daemons = workers + [local]
        # Message counts, per daemon index: served, and refused while dead.
        served = [0] * len(daemons)
        refused = [0] * len(daemons)
        posted = [0] * len(daemons)

        def post(index, kind, **payload):
            posted[index] += 1
            if single_posts_as_groups:
                return channels[index].post_group(kind, [payload])[0]
            return channels[index].post(kind, **payload)

        rng = random.Random(seed)
        outcomes = []
        last = {}
        for _ in range(250):
            index = rng.randrange(len(channels))
            channel = channels[index]
            action = rng.randrange(7)
            if action == 0:
                served[index] += 1
                outcomes.append(channel.request("work",
                                                cost=rng.randrange(1, 3)))
            elif action == 1:
                served[index] += 1
                outcomes.append(post(index, "work", cost=rng.randrange(1, 3)))
            elif action == 2:
                payloads = [{"cost": rng.randrange(1, 3)}
                            for _ in range(rng.randrange(1, 4))]
                served[index] += len(payloads)
                posted[index] += len(payloads)
                outcomes.extend(channel.post_group("work", payloads))
            elif action == 3:
                served[index] += 1
                with pytest.raises(ReproError, match="statement-time"):
                    if rng.randrange(2):
                        post(index, "boom")
                    else:
                        channel.request("boom")
                outcomes.append("boom")
            elif action == 4:
                served[index] += 1
                outcomes.append(channel.request("lazy",
                                                cost=rng.randrange(1, 3)))
            elif action == 5:
                # A dead daemon refuses the exchange; the attempt still
                # costs the caller a round trip.
                refused[index] += 1
                daemons[index].stop()
                with pytest.raises(DaemonUnavailableError):
                    channel.request("work")
                daemons[index].start()
            else:
                picked = rng.sample(range(len(channels)), 2)
                with host.overlap():
                    for fanned in picked:
                        served[fanned] += 1
                        outcomes.append(channels[fanned].request("work",
                                                                 cost=1))
            for name, domain in group.domains.items():
                assert domain.now() >= last.get(name, 0.0), name
                last[name] = domain.now()
        counts = {name: {label: cell[0]
                         for label, cell in domain.stats._cells.items()}
                  for name, domain in group.domains.items()}
        for index, worker in enumerate(workers):
            cells = counts[worker.clock.name]
            assert worker.requests_served == served[index]
            assert cells.get("daemon_dispatch", 0) == served[index]
            assert cells.get("db_dlfm_message", 0) == served[index]
        local_index = len(workers)
        assert local.requests_served == served[local_index]
        host_cells = counts["host"]
        assert host_cells.get("daemon_dispatch", 0) == served[local_index]
        assert host_cells.get("upcall_round_trip", 0) == \
            served[local_index] + refused[local_index]
        assert host_cells.get("db_dlfm_message", 0) == sum(refused[:local_index])
        assert host_cells.get("message_send", 0) == sum(posted[:local_index])
        return {
            "outcomes": outcomes,
            "global": group.global_now(),
            "domains": {name: domain.now()
                        for name, domain in group.domains.items()},
            "per_domain": {name: {label: (cell[0], cell[1])
                                  for label, cell in
                                  domain.stats._cells.items()}
                           for name, domain in group.domains.items()},
            "stats": {label: (cell[0], cell[1])
                      for label, cell in group.stats._cells.items()},
        }

    @pytest.mark.parametrize("seed", [11, 20260807, 987654])
    def test_traffic_is_monotone_and_counts_every_message(self, seed):
        # The counting and monotonicity assertions run inside.
        assert self._run_traffic(seed)["outcomes"]

    @pytest.mark.parametrize("seed", [11, 987654])
    def test_post_is_a_one_message_post_group(self, seed):
        """``post(k, **p)`` and ``post_group(k, [p])`` leave identical
        ledgers: timestamps, every statistics cell and every result."""

        assert self._run_traffic(seed) == \
            self._run_traffic(seed, single_posts_as_groups=True)


class TestPipelinedErrorLatency:
    """A pipelined (posted) message whose handler fails is not free: the
    error surfaces at statement time, which means the caller waited for it,
    so the caller's clock merges up to the callee's completion."""

    def test_posted_error_costs_a_round_trip_sync(self):
        from repro.errors import ReproError
        from repro.ipc.channel import Channel
        from repro.ipc.daemon import Daemon

        group = ClockDomainGroup(CostModel())
        host, shard = group.domain("host"), group.domain("shard")

        class Worker(Daemon):
            def __init__(self, clock):
                super().__init__("worker", clock)
                self.register("ok", self._ok)
                self.register("boom", self._boom)

            def _ok(self):
                self.clock.charge("disk_seek")
                return {}

            def _boom(self):
                self.clock.charge("disk_seek")
                raise ReproError("statement-time failure")

        worker = Worker(shard)
        channel = Channel(worker, host, latency_primitive="db_dlfm_message")

        # Success post: fire-and-forget -- the host pays only the enqueue
        # cost while the work accrues on the shard's own timeline.
        before = host.now()
        channel.post("ok")
        assert host.now() - before == pytest.approx(host.costs.message_send)
        assert shard.now() > host.now()

        # Error post: the host is charged the wait for the failure to come
        # back, exactly like a synchronous round trip.
        with pytest.raises(ReproError):
            channel.post("boom")
        assert host.now() == pytest.approx(shard.now())

    def test_failed_link_statement_syncs_host_to_shard_domain(self):
        """A link batch that fails at statement time charges the caller the
        round trip to the shard's clock domain (it used to be free)."""

        from repro.datalinks.control_modes import ControlMode
        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.errors import ReproError
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        deployment = ShardedDataLinksDeployment(2, group_commit_window=1)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RFF, recovery=False)),
        ], primary_key=("doc_id",)))
        missing = "/nowhere/missing.dat"
        shard_clock = deployment.shard(deployment.shard_of(missing)).clock
        url = deployment.engine.make_url(deployment.shard_of(missing), missing)
        host_txn = deployment.begin()
        with pytest.raises(ReproError):
            deployment.engine.insert_many(
                "docs", [{"doc_id": 1, "body": url}], host_txn)
        # The statement-time error was not free: at the moment it surfaced
        # (before any abort round trip) the host domain had already merged
        # up to the shard's completion of the failed link batch.
        assert deployment.clock.now() >= shard_clock.now()
        deployment.abort(host_txn)
