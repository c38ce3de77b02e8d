"""The Retwis workload: a simplified Twitter clone (§7.3).

Four request types with the paper's mixture:

- UserLogin (15%) — non-transactional single-object read;
- UserProfile (30%) — non-transactional single-object read;
- GetTimeline (50%) — read-only transaction reading the timeline plus its
  tweets;
- NewTweet (5%) — read-write transaction writing user, tweet, and
  timeline objects.

Two interchangeable backends: BokiStore objects and MongoDB documents.
"""

from __future__ import annotations

import itertools
from typing import Generator, Iterator, List, Optional, Tuple

from repro.baselines.mongodb import MongoDBClient, WriteConflictError
from repro.libs.bokistore import BokiStore, Transaction
from repro.sim.randvar import weighted_choice

MIXTURE = [("login", 0.15), ("profile", 0.30), ("timeline", 0.50), ("tweet", 0.05)]
TIMELINE_READ_LIMIT = 5
FOLLOWERS_PER_USER = 2
#: Realistic object sizes: a user profile carries ~1 KB of metadata (bio,
#: avatar, settings) and a tweet ~240 characters of text.
PROFILE_BLOB = "p" * 900
TWEET_PAD = "t" * 200


class RetwisBokiStore:
    """Retwis over BokiStore objects.

    New tweets take their ids from ``tweet_ids``; the backends of one run
    share one source, so their ids never collide.
    """

    def __init__(self, store: BokiStore, num_users: int = 100,
                 tweet_ids: Optional[Iterator[int]] = None):
        self.store = store
        self.num_users = num_users
        self.txn_aborts = 0
        self._tweet_ids = itertools.count(1) if tweet_ids is None else tweet_ids

    # -- data model --
    @staticmethod
    def _user(u: int) -> str:
        return f"user:{u}"

    @staticmethod
    def _timeline(u: int) -> str:
        return f"timeline:{u}"

    @staticmethod
    def _tweet(t: int) -> str:
        return f"tweet:{t}"

    def _followers(self, u: int) -> List[int]:
        return [(u + k + 1) % self.num_users for k in range(FOLLOWERS_PER_USER)]

    def init_users(self) -> Generator:
        for u in range(self.num_users):
            yield from self.store.update(
                self._user(u),
                [
                    {"op": "set", "path": "name", "value": f"user{u}"},
                    {"op": "set", "path": "password", "value": f"pw{u}"},
                    {"op": "set", "path": "bio", "value": PROFILE_BLOB},
                    {"op": "set", "path": "followers", "value": self._followers(u)},
                    {"op": "set", "path": "tweets", "value": 0},
                ],
            )
            yield from self.store.update(
                self._timeline(u), [{"op": "set", "path": "posts", "value": []}]
            )

    # -- request types --
    def user_login(self, u: int) -> Generator:
        view = yield from self.store.get_object(self._user(u))
        return view.get("password") == f"pw{u}"

    def user_profile(self, u: int) -> Generator:
        view = yield from self.store.get_object(self._user(u))
        return {"name": view.get("name"), "tweets": view.get("tweets")}

    def get_timeline(self, u: int) -> Generator:
        txn = yield from Transaction(self.store, readonly=True).begin()
        timeline = yield from txn.get_object(self._timeline(u))
        posts = timeline.get("posts", []) or []
        tweets = []
        for tweet_id in posts[-TIMELINE_READ_LIMIT:]:
            tweet = yield from txn.get_object(self._tweet(tweet_id))
            tweets.append(tweet.get("text"))
        yield from txn.commit()
        return tweets

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
        if not ok:
            self.txn_aborts += 1
        return ok


class RetwisMongo:
    """Retwis over MongoDB documents; ``tweet_ids`` as for
    :class:`RetwisBokiStore`."""

    def __init__(self, client: MongoDBClient, num_users: int = 100,
                 tweet_ids: Optional[Iterator[int]] = None):
        self.client = client
        self.num_users = num_users
        self.txn_aborts = 0
        self._tweet_ids = itertools.count(1) if tweet_ids is None else tweet_ids

    def _followers(self, u: int) -> List[int]:
        return [(u + k + 1) % self.num_users for k in range(FOLLOWERS_PER_USER)]

    def init_users(self) -> Generator:
        for u in range(self.num_users):
            yield from self.client.upsert(
                "users",
                u,
                {
                    "name": f"user{u}",
                    "password": f"pw{u}",
                    "bio": PROFILE_BLOB,
                    "followers": self._followers(u),
                    "tweets": 0,
                },
            )
            yield from self.client.upsert("timelines", u, {"posts": []})

    def user_login(self, u: int) -> Generator:
        doc = yield from self.client.find("users", u)
        return doc is not None and doc.get("password") == f"pw{u}"

    def user_profile(self, u: int) -> Generator:
        doc = yield from self.client.find("users", u)
        return {"name": doc.get("name"), "tweets": doc.get("tweets")} if doc else None

    def get_timeline(self, u: int) -> Generator:
        txn = yield from self.client.txn_begin()
        timeline = yield from self.client.txn_find(txn, "timelines", u)
        posts = (timeline or {}).get("posts", [])
        tweets = []
        for tweet_id in posts[-TIMELINE_READ_LIMIT:]:
            tweet = yield from self.client.txn_find(txn, "tweets", tweet_id)
            tweets.append((tweet or {}).get("text"))
        yield from self.client.txn_commit(txn)
        return tweets

    def new_tweet(self, u: int, text: str) -> Generator:
        tweet_id = next(self._tweet_ids)
        txn = yield from self.client.txn_begin()
        user = yield from self.client.txn_find(txn, "users", u)
        followers = (user or {}).get("followers", [])
        yield from self.client.txn_update(
            txn, "tweets", tweet_id,
            [{"op": "set", "path": "user", "value": u},
             {"op": "set", "path": "text", "value": text}],
        )
        yield from self.client.txn_update(
            txn, "users", u, [{"op": "inc", "path": "tweets", "value": 1}]
        )
        for follower in [u] + followers:
            yield from self.client.txn_update(
                txn, "timelines", follower,
                [{"op": "push", "path": "posts", "value": tweet_id}],
            )
        try:
            yield from self.client.txn_commit(txn)
            return True
        except WriteConflictError:
            self.txn_aborts += 1
            return False


def retwis_op(backend, rng, request_index: int) -> Tuple[str, Generator]:
    """Draw one request from the paper's mixture; returns (kind, gen)."""
    kinds, weights = zip(*MIXTURE)
    kind = kinds[weighted_choice(rng, list(weights))]
    u = rng.randrange(backend.num_users)
    if kind == "login":
        return kind, backend.user_login(u)
    if kind == "profile":
        return kind, backend.user_profile(u)
    if kind == "timeline":
        return kind, backend.get_timeline(u)
    return kind, backend.new_tweet(u, f"tweet #{request_index} {TWEET_PAD}")
