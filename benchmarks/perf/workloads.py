"""The five fixed workloads of the perf ledger.

Each workload is a function ``build(seed) -> Run`` that constructs a
fresh cluster, boots it, preloads data, and spawns the benchmark's own
load generator as kernel processes (nothing runs until the caller
advances ``run.env``). Building is what ``setup_s`` times; the caller
then drives ``run.env`` for ``duration`` virtual seconds in timed slices
and finally calls ``run.finish()``, which stops the load, lets in-flight
operations drain, and runs the workload's correctness checks.

Virtual durations are fixed, so for a given seed the operation count,
every modelled latency and the kernel event count repeat exactly; only
host time varies. Each is sized to about one host-CPU second at the
seed commit and completes >= 1,000 operations, so ten samples lie beyond
the reported p99.

Everything goes through public surfaces (``BokiCluster``, ``LogBook``,
``BokiStore``, ``cluster.invoke``); the load generators are the
benchmark's own so a change to ``repro.workloads.harness`` cannot move
the ledger.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from benchmarks.perf.estimator import SLICES
from repro.core.cluster import BokiCluster
from repro.libs.bokistore import BokiStore, Transaction
from repro.workloads import retwis, social
from repro.workloads.harness import ZipfianSampler

PAYLOAD_1KB = "x" * 1024
#: Virtual seconds finish() allows in-flight operations to complete.
DRAIN = 0.25
#: Failure messages kept verbatim (the count is always exact).
MAX_MESSAGES = 20


class Run:
    """One repetition's fixture: cluster, load generator, operation log."""

    def __init__(self, env, cluster: Optional[BokiCluster] = None):
        self.env = env
        #: None for fixtures below the cluster (the kernel/network rungs).
        self.cluster = cluster
        #: (kind, completion virtual time, latency) per completed op.
        self.ops: List[Tuple[str, float, float]] = []
        #: Ops that raised, were shed, or failed a correctness check.
        self.failed = 0
        self.messages: List[str] = []
        self.stopping = False
        #: Open-loop only: how late (virtual s) the generator launched an
        #: arrival after its due time, worst case.
        self.lateness_max = 0.0

    def done(self, kind: str, started: float) -> None:
        now = self.env.now
        self.ops.append((kind, now, now - started))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def closed_loop(self, clients: int, make_op: Callable[[int], Callable[[], Generator]]) -> None:
        """Spawn ``clients`` processes, each running its op back to back.
        ``make_op(i)()`` is a generator that records its own completions
        with :meth:`done`."""
        for i in range(clients):
            self.env.process(self._client(make_op(i)), name=f"perf-client-{i}")

    def _client(self, op: Callable[[], Generator]) -> Generator:
        while not self.stopping:
            try:
                yield from op()
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
                self.fail(f"op raised {exc!r}")
                yield self.env.timeout(1e-3)  # never spin at one instant

    def warm_up(self, seconds: float) -> None:
        """Run the load for ``seconds`` of virtual time as the last step
        of set-up: caches fill, the clients' lockstep start decays, and
        the log is not empty when timing starts. Warm-up ops are checked
        like any other but left out of the statistics."""
        self.env.run(until=self.env.now + seconds)
        self.ops.clear()

    def finish(self) -> None:
        """Stop the load, drain in-flight ops (untimed), run the checks."""
        self.stopping = True
        self.env.run(until=self.env.now + DRAIN)
        self.check()

    def check(self) -> None:
        raise NotImplementedError


def stratified(rng, mixture: List[Tuple[str, float]], block: int) -> Generator:
    """Endless op kinds in exactly the mixture's proportions: blocks of
    ``block`` kinds, each shuffled by the seeded stream. Which op comes
    when depends on the seed; how many of each kind a run holds does
    not, so cost per op is comparable across seeds."""
    deck = [kind for kind, share in mixture for _ in range(round(share * block))]
    while True:
        rng.shuffle(deck)
        yield from deck


def virt_digest(ops: List[Tuple[str, float, float]]) -> str:
    """sha256 over the ordered (op kind, completion virtual time) list."""
    digest = hashlib.sha256()
    for kind, at, _ in ops:
        digest.update(f"{kind}@{at!r};".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# append_heavy
# ----------------------------------------------------------------------
class AppendHeavy(Run):
    CLIENTS = 80

    def __init__(self, seed: int):
        cluster = BokiCluster(
            num_function_nodes=4, num_storage_nodes=8, num_sequencer_nodes=3, seed=seed,
        )
        super().__init__(cluster.env, cluster)
        cluster.boot()
        engines = list(self.cluster.engines.values())
        self.seqnums: List[List[int]] = [[] for _ in range(self.CLIENTS)]
        self.closed_loop(self.CLIENTS, lambda i: self._appender(
            self.cluster.logbook(1, engine=engines[i % len(engines)]), self.seqnums[i]
        ))
        self.warm_up(0.005)

    def _appender(self, book, seqnums: List[int]) -> Callable[[], Generator]:
        def op() -> Generator:
            started = self.env.now
            seqnums.append((yield from book.append(PAYLOAD_1KB)))
            self.done("append", started)
        return op

    def check(self) -> None:
        for i, seqnums in enumerate(self.seqnums):
            if any(b <= a for a, b in zip(seqnums, seqnums[1:])):
                self.fail(f"client {i}: seqnums not increasing")
        total = sum(len(s) for s in self.seqnums)
        if len({s for seqnums in self.seqnums for s in seqnums}) != total:
            self.fail("duplicate seqnum across clients")
        snapshot = self.cluster.metrics_snapshot()
        stored = sum(
            snapshot.value(f"storage.{n.name}.records") for n in self.cluster.storage_nodes
        )
        if stored != self.cluster.config.ndata * total:
            self.fail(f"storage holds {stored} records, want {self.cluster.config.ndata} x {total}")


# ----------------------------------------------------------------------
# read_heavy
# ----------------------------------------------------------------------
class ReadHeavy(Run):
    CLIENTS = 16
    READS_PER_APPEND = 16
    #: Every Nth read is preceded by a cache drop, so it goes to storage.
    DROP_EVERY = 4

    def __init__(self, seed: int):
        cluster = BokiCluster(seed=seed)
        super().__init__(cluster.env, cluster)
        cluster.boot()
        log_id = cluster.term.log_for_book(1)
        indexers = [e for e in self.cluster.engines.values() if e.indexes(log_id)]
        self.closed_loop(self.CLIENTS, lambda i: self._cycle(i, indexers[i % len(indexers)]))
        self.warm_up(0.01)

    def _cycle(self, client: int, engine) -> Callable[[], Generator]:
        book = self.cluster.logbook(1, engine=engine)
        tag = 100 + client
        count = [0]

        def op() -> Generator:
            env = self.env
            count[0] += 1
            payload = f"{client}:{count[0]}:".ljust(1024, "r")
            started = env.now
            seqnum = yield from book.append(payload, tags=[tag])
            self.done("append", started)
            for k in range(self.READS_PER_APPEND):
                if k % self.DROP_EVERY == self.DROP_EVERY - 1:
                    engine.cache.drop(seqnum)
                started = env.now
                record = yield from book.read_next(tag=tag, min_seqnum=seqnum)
                self.done("read", started)
                if record is None or record.seqnum != seqnum or record.data != payload:
                    self.fail(f"client {client}: read after append {seqnum:#x} returned {record!r}")
        return op

    def check(self) -> None:
        pass  # every read is checked as it completes


# ----------------------------------------------------------------------
# retwis_store
# ----------------------------------------------------------------------
class _Retwis(retwis.RetwisBokiStore):
    """``RetwisBokiStore`` with a per-instance tweet-id counter: the
    library's counter is module-global, which would make repetitions on
    a fresh cluster see different ids (and so do different work)."""

    def __init__(self, store: BokiStore, num_users: int, tweet_ids):
        super().__init__(store, num_users=num_users)
        self._tweet_ids = tweet_ids
        #: (user, tweet id) of every committed tweet posted through here.
        self.posted: List[Tuple[int, int]] = []

    def new_tweet(self, u: int, text: str) -> Generator:
        tweet_id = next(self._tweet_ids)
        txn = yield from Transaction(self.store).begin()
        user = yield from txn.get_object(self._user(u))
        tweet = yield from txn.get_object(self._tweet(tweet_id))
        tweet.set("user", u)
        tweet.set("text", text)
        user.inc("tweets", 1)
        for follower in [u] + (user.get("followers") or []):
            timeline = yield from txn.get_object(self._timeline(follower))
            timeline.push_array("posts", tweet_id)
        ok = yield from txn.commit()
        if ok:
            self.posted.append((u, tweet_id))
        else:
            self.txn_aborts += 1
        return ok


class RetwisStore(Run):
    CLIENTS = 16
    USERS = 40
    HISTORY = 2
    BOOK = 60

    def __init__(self, seed: int):
        cluster = BokiCluster(seed=seed)
        super().__init__(cluster.env, cluster)
        cluster.boot()
        log_id = cluster.term.log_for_book(self.BOOK)
        indexers = [e for e in cluster.engines.values() if e.indexes(log_id)]
        tweet_ids = iter(range(1, 1 << 62))
        self.backends = [
            _Retwis(BokiStore(cluster.logbook(self.BOOK, engine=indexers[i % len(indexers)])),
                    self.USERS, tweet_ids)
            for i in range(self.CLIENTS)
        ]
        cluster.drive(self._preload(indexers), limit=3600.0)
        self.rng = cluster.streams.stream("perf-retwis")
        self.kinds = stratified(self.rng, retwis.MIXTURE, block=20)
        self.closed_loop(self.CLIENTS, lambda i: self._request(self.backends[i]))

    def _preload(self, indexers) -> Generator:
        """A long-running deployment: every object has accumulated
        ``HISTORY`` writes and every serving engine's cache is warm."""
        first = self.backends[0]
        yield from first.init_users()
        for u in range(self.USERS):
            for i in range(self.HISTORY):
                yield from first.store.update(
                    f"user:{u}", [{"op": "set", "path": "last_seen", "value": i}])
                yield from first.store.update(
                    f"timeline:{u}", [{"op": "push", "path": "posts", "value": 0}])
        for backend in self.backends[:len(indexers)]:
            for u in range(self.USERS):
                yield from backend.store.get_object(f"user:{u}")
                yield from backend.store.get_object(f"timeline:{u}")

    def _request(self, backend: _Retwis) -> Callable[[], Generator]:
        count = [0]

        def op() -> Generator:
            kind = next(self.kinds)
            u = self.rng.randrange(self.USERS)
            count[0] += 1
            started = self.env.now
            if kind == "login":
                ok = yield from backend.user_login(u)
                if not ok:
                    self.fail(f"login of user {u} rejected")
            elif kind == "profile":
                profile = yield from backend.user_profile(u)
                if profile["name"] != f"user{u}":
                    self.fail(f"profile of user {u} is {profile!r}")
            elif kind == "timeline":
                yield from backend.get_timeline(u)
            else:
                yield from backend.new_tweet(u, f"tweet #{count[0]} {retwis.TWEET_PAD}")
            self.done(kind, started)
        return op

    def check(self) -> None:
        self.cluster.drive(self._check_timelines(), limit=3600.0)

    def _check_timelines(self) -> Generator:
        for backend in self.backends:
            for u, tweet_id in backend.posted:
                view = yield from backend.store.get_object(f"timeline:{u}")
                if tweet_id not in (view.get("posts") or []):
                    self.fail(f"tweet {tweet_id} missing from timeline of user {u}")


# ----------------------------------------------------------------------
# gateway_layers_off / gateway_layers_on
# ----------------------------------------------------------------------
class Gateway(Run):
    RATE = 800.0
    TENANTS = 4
    USERS_PER_TENANT = 250_000

    def __init__(self, seed: int, layers: bool):
        cluster = BokiCluster(seed=seed)
        super().__init__(cluster.env, cluster)
        if layers:
            cluster.enable_observability()
            cluster.enable_monitoring()
            cluster.enable_resilience()
            cluster.enable_admission()
            cluster.enable_tenancy()
        social.register_functions(cluster)
        cluster.boot()
        self.rng = cluster.streams.stream("perf-gateway")
        self.sampler = ZipfianSampler(100_000)
        self.kinds = stratified(
            self.rng, [("report", social.REPORT_SHARE), ("ingest", 1 - social.REPORT_SHARE)],
            block=5)
        self.inflight = 0
        self.leaks = 0
        self.env.process(self._arrivals(), name="perf-arrivals")
        self.warm_up(0.1)

    def _arrivals(self) -> Generator:
        """Poisson arrivals by Lewis-Shedler thinning at a constant rate
        (every candidate is accepted); open loop, so a slow system does
        not slow the generator."""
        env = self.env
        due = env.now
        i = 0
        while not self.stopping:
            due += self.rng.expovariate(self.RATE)
            if due > env.now:
                yield env.timeout(due - env.now)
            if self.stopping:
                return
            self.lateness_max = max(self.lateness_max, env.now - due)
            env.process(self._request(due), name=f"perf-req-{i}")
            i += 1

    def _draw_user(self) -> int:
        # Four tenants' worth of keys: disjoint user ranges, unlabelled
        # invocations (labels need enable_tenancy, which would make
        # layers-on address different log spaces than layers-off).
        tenant = self.rng.randrange(self.TENANTS)
        return tenant * self.USERS_PER_TENANT + self.sampler.sample(self.rng)

    def _request(self, due: float) -> Generator:
        user = self._draw_user()
        kind = next(self.kinds)
        if kind == "report":
            users = [user] + [self._draw_user() for _ in range(social.REPORT_FANOUT - 1)]
            fn, arg = "session.report", {"users": users}
        else:
            fn, arg = "session.ingest", {"user": user}
        book_id = social.SESSION_BOOK_BASE + user % social.SESSION_BOOKS
        self.inflight += 1
        try:
            result = yield from self.cluster.invoke(fn, arg, book_id=book_id)
        except Exception as exc:  # noqa: BLE001 - errors and sheds are counted results
            self.fail(f"{fn} raised {exc!r}")
            return
        finally:
            self.inflight -= 1
        self.done(kind, due)
        if kind == "ingest" and not result["visible"]:
            self.fail(f"ingest for user {user} cannot read its own write")
        if result.get("leaks"):
            self.leaks += result["leaks"]
            self.fail(f"report for user {user} saw {result['leaks']} cross-tenant records")

    def check(self) -> None:
        if self.inflight:
            self.fail(f"{self.inflight} requests still in flight after the drain")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Virtual seconds of the timed region.
    duration: float
    build: Callable[[int], Run]
    #: Equal virtual-time slices the timed region is driven in.
    slices: int = SLICES


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "append_heavy",
        "closed loop, 80 clients appending 1 KB to one LogBook on 4 function / 8 storage / 3 "
        "sequencer nodes (Table 2a): the write path, where kernel and network do the work",
        0.03, AppendHeavy,
    ),
    Workload(
        "read_heavy",
        "closed loop, 16 clients, one tagged append then 16 read_next, every 4th from storage "
        "(Table 3/7): index, cache and read path; network and replication gains bypass it",
        0.085, ReadHeavy,
    ),
    Workload(
        "retwis_store",
        "closed loop, 16 clients, Retwis mix over BokiStore, 100 users with history (Fig. 12): "
        "support-library replay and copying dominate, the kernel matters least",
        0.11, RetwisStore,
    ),
    Workload(
        "gateway_layers_off",
        "open loop at 800 req/s, social ingest/report functions through gateway and workers, no "
        "optional layer: the faas path and the price of an under-loaded cluster's idle ticking",
        1.4, lambda seed: Gateway(seed, layers=False),
    ),
    Workload(
        "gateway_layers_on",
        "the same traffic with obs, monitoring, resilience, admission and tenancy enabled: the "
        "price of the layer wiring; modelled results must equal gateway_layers_off exactly",
        1.4, lambda seed: Gateway(seed, layers=True),
    ),
]}
