"""Stable hashing: LogBook -> physical-log placement, and log tags.

Boki employs Dynamo's variant of consistent hashing — strategy 3 in the
Dynamo paper (§6): the hash ring is divided into ``Q`` equal-sized
partitions, and each member owns ``Q / n`` partitions. Remapping when the
member set changes moves whole partitions, and the assignment is balanced
by construction.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def stable_hash(value, salt: str = "") -> int:
    """A deterministic 64-bit hash (Python's builtin hash is salted)."""
    digest = hashlib.sha256(f"{salt}:{value!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Tag-space guard: tags must be nonzero (0 is the implicit all-records tag).
_TAG_MOD = (1 << 61) - 1


def log_tag(salt: str, parts) -> int:
    """hashLogTag of the Figure 6a pseudocode: the nonzero LogBook tag a
    support library derives from ``parts`` (anything with a stable
    ``repr``), in the tag family ``salt`` names."""
    return stable_hash(parts, salt=salt) % _TAG_MOD + 1


class ConsistentHashRing:
    """Equal-partition consistent hashing (Dynamo strategy 3).

    The ring has ``num_partitions`` fixed slots; members (physical log ids)
    are assigned to slots round-robin over a deterministic shuffle, so each
    member owns an equal share and the mapping is stable for a given
    ``(members, num_partitions, seed)``.
    """

    def __init__(self, members: Sequence[int], num_partitions: int = 256, seed: int = 0):
        if not members:
            raise ValueError("ring needs at least one member")
        if num_partitions < len(members):
            raise ValueError("need at least one partition per member")
        self.members = list(members)
        self.num_partitions = num_partitions
        self.seed = seed
        self._partition_owner: List[int] = self._assign()
        #: book_id -> log; the ring never changes after ``_assign``.
        self._lookups: Dict[int, int] = {}

    def _assign(self) -> List[int]:
        # Rendezvous ranking per partition gives stability under membership
        # change (partitions rarely move between surviving members); a
        # fix-up pass then equalizes ownership to exactly floor/ceil(Q/n),
        # preserving strategy 3's balanced equal-size partitions.
        def rank(partition: int, member: int) -> int:
            return stable_hash((self.seed, partition, member), salt="rendezvous")

        owners = [
            max(self.members, key=lambda m: rank(p, m))
            for p in range(self.num_partitions)
        ]
        quota_low = self.num_partitions // len(self.members)
        counts = {m: 0 for m in self.members}
        for owner in owners:
            counts[owner] += 1
        # Move the lowest-rank partitions of overloaded members to the
        # underloaded member that ranks them highest.
        for member in sorted(self.members, key=lambda m: -counts[m]):
            while counts[member] > quota_low + (1 if self.num_partitions % len(self.members) else 0):
                owned = [p for p, o in enumerate(owners) if o == member]
                victim = min(owned, key=lambda p: rank(p, member))
                under = [m for m in self.members if counts[m] < quota_low]
                if not under:
                    break
                target = max(under, key=lambda m: rank(victim, m))
                owners[victim] = target
                counts[member] -= 1
                counts[target] += 1
        return owners

    def lookup(self, book_id: int) -> int:
        """Map a LogBook id to its physical log."""
        log_id = self._lookups.get(book_id)
        if log_id is None:
            partition = stable_hash(book_id, salt="book") % self.num_partitions
            log_id = self._lookups[book_id] = self._partition_owner[partition]
        return log_id

