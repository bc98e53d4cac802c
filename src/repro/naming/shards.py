"""The naming fleet's shard map and its deployment (paper Sec. 7,
PROTOCOL.md §14).

"The database could also be partially distributed across two or more
such modules ... without affecting the rest of the NTCS.  This
flexibility is a direct result of having built this service on top of
the Nucleus, and of isolating it with the NSP-Layer."

The name↔UAdd database is partitioned across N *shards* by a
deterministic consistent-hash ring over logical names
(:class:`HashRing`); each shard is a group of replicas running the
last-write-wins replication of :class:`~repro.naming.server.NameServer`.
The service stays *recursive*: every server is an ordinary module on
the Nucleus it serves, bootstrapped from well-known addresses.

Routing (the client side is :class:`~repro.naming.nsp.NspLayer`):

* name-keyed requests (register, resolve_name, resolve_batch) go to
  ``ring.owner(name)``,
* UAdd-keyed requests (resolve_uadd, forward, deregister) go to the
  shard containing the server that *minted* the UAdd — the Sec. 3.2
  server-id prefix makes this a shift and a dictionary lookup,
* a server asked about a name or UAdd it does not own answers
  ``ns_shard_redirect`` carrying the owning shard's replica directory;
  clients follow a bounded number of hops and fold newly learned
  shards into their own ring (the §9 path-compression idea applied to
  shard routing).

Reconciliation reuses the §9 generation stamps: every origin write of a
server with replica peers is appended to its database's
:attr:`~NameDatabase.oplog` under its generation stamp, and
``ns_antientropy`` pulls exactly the suffix past the requester's
watermark.  The merge is tombstone-wins and therefore idempotent and
order-insensitive.

:func:`deploy_naming` starts any shape of fleet from one value — a
list of machine names per shard: ``[[m]]`` is the lone Name Server,
``[[a, b]]`` the replicated service, ``[[a, b], [c, d]]`` a 2 × 2 fleet.
"""

from __future__ import annotations

import bisect
import zlib
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NtcsError, SimulationError
from repro.naming.database import NameDatabase
from repro.ntcs.address import Address, SERVER_ID_SHIFT

# One directory entry per fleet server: (uadd, listen blob, mtype name).
ShardEntry = Tuple[Address, str, str]


def load_name_servers(nucleus, directory: Dict[int, List[ShardEntry]],
                      own: Optional[Address] = None) -> Dict[int, int]:
    """Load fleet members into a module's tables (the Sec. 3.4
    bootstrap, extended to a fleet): each is "the naming service" to
    the LCM's Sec. 6.3 patch, and its well-known blob — unless it is
    the module's ``own`` — primes the address cache.  Returns {server
    id that mints UAdds: shard id}."""
    minted: Dict[int, int] = {}
    for shard_id, entries in directory.items():
        for uadd, blob, mtype_name in entries:
            minted[uadd.value >> SERVER_ID_SHIFT] = shard_id
            nucleus.ns_addresses.add(uadd)
            if blob and uadd != own:
                nucleus.addr_cache.store(uadd, blob, mtype_name)
    return minted


# -- the consistent-hash ring -----------------------------------------------------

def _crc32(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


@lru_cache(maxsize=None)
def _shard_points(shard_id: int, vnodes: int) -> Tuple[Tuple[int, int], ...]:
    """One shard's ``vnodes`` ring points, computed once per process:
    every module's NSP builds a ring from the same few shards."""
    return tuple((_crc32(f"shard-{shard_id}#{v}"), shard_id)
                 for v in range(vnodes))


class HashRing:
    """Deterministic consistent hashing over shard ids.

    Hash points come from CRC-32 (stable across processes and
    platforms — Python's built-in ``hash`` is salted per process and
    would break the "every client computes the same owner" invariant).
    Each shard contributes ``vnodes`` virtual points; a name is owned
    by the shard holding the first point at or after the name's hash,
    wrapping at the top.  Adding a shard only moves names *to* it;
    removing one only moves names *from* it (monotone remapping).
    """

    def __init__(self, shard_ids: Iterable[int] = (), vnodes: int = 128):
        self._shards: set = set(shard_ids)
        # sorted (point, shard): one sort over every shard's points.
        self._points: List[Tuple[int, int]] = []
        for shard_id in self._shards:
            self._points.extend(_shard_points(shard_id, vnodes))
        self._points.sort()

    _hash = staticmethod(_crc32)

    def owner(self, name: str) -> int:
        """The shard owning a logical name."""
        if not self._points:
            raise NtcsError("the hash ring has no shards")
        index = bisect.bisect_left(self._points, (self._hash(name), -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    @property
    def shards(self) -> List[int]:
        return sorted(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def __len__(self) -> int:
        return len(self._shards)


# -- deployment ------------------------------------------------------------------

def deploy_naming(testbed, shard_machines: Sequence[Sequence[str]], db=None):
    """Start a testbed's naming service: one
    :class:`~repro.naming.server.NameServer` per machine, one machine
    list per shard, and publish the fleet to every (current and future)
    module through the well-known table.  Returns {shard_id:
    [servers]}; shard 0's first replica is the conventional primary
    (server id 0, so it owns the well-known ``NAME_SERVER_UADD``) and
    becomes ``testbed.name_server_instance``.  ``db`` swaps the
    primary's database implementation (e.g. an
    :class:`~repro.naming.attributes.AttributeNameDatabase`)."""
    if testbed.name_server_instance is not None:
        raise SimulationError("this testbed already has a Name Server")
    if not shard_machines or not all(shard_machines):
        raise NtcsError("a naming service needs at least one server per shard")
    lone = sum(len(machines) for machines in shard_machines) == 1
    for machines in shard_machines:
        _start_shard(testbed, machines, lone=lone, db=db)
    primary = testbed.shard_groups[0][0]
    testbed.wellknown.add_name_server_blob(primary.listen_blob)
    testbed.name_server_instance = primary
    _publish_directory(testbed)
    return testbed.shard_groups


def _start_shard(testbed, machine_names: Sequence[str], lone: bool = False,
                 db=None) -> list:
    """Start the fleet's next replica group; shard and server ids
    continue where the fleet so far ends.  A fleet of one keeps the
    paper's name for it (``NameServer.DEFAULT_NAME``); ``db`` is for
    server id 0."""
    groups = testbed.shard_groups
    shard_id = len(groups)
    server_id = sum(len(group) for group in groups.values())
    group = groups[shard_id] = []
    for machine_name in machine_names:
        if server_id or db is None:  # only the primary may be handed one
            db = NameDatabase(server_id=server_id,
                              clock=lambda: testbed.scheduler.now)
        name = None if lone else f"name.shard.{shard_id}.{len(group)}"
        group.append(testbed.start_name_server(
            machine_name, name, shard_id=shard_id, db=db))
        server_id += 1
    return group


def _publish_directory(testbed) -> None:
    """Give every server the fleet directory (shard map, replica peers,
    the fleet's well-known blobs) and its replica group's
    self-registrations, and publish the directory to the modules.  A
    lone server *is* the Sec. 3.4 convention — every module already
    holds its address — so only a real fleet extends the table."""
    directory = testbed.shard_directory
    if sum(len(entries) for entries in directory.values()) > 1:
        testbed.wellknown.publish_name_servers(directory)
    for group in testbed.shard_groups.values():
        for server in group:
            server.set_shard_map(directory)
            for other in group:
                if other is not server:
                    for record in other.db.all_records():
                        server.db.adopt(record)


def add_naming_shard(testbed, machine_names: Sequence[str]):
    """Rebalance a live deployment: start a new replica group as the
    next shard, push the re-drawn shard map to every existing server
    (a configuration push — no gateway is involved), and hand over the
    records the new ring assigns to the newcomer.  Existing clients
    keep their stale ring (or, against a grown lone server, none) and
    are steered by redirects; new modules see the grown directory
    immediately.  Returns (new group, records moved)."""
    group = _start_shard(testbed, machine_names)
    _publish_directory(testbed)
    # Ownership transfer: each old shard's first live replica pushes
    # the records that now belong to the newcomer.
    moved = 0
    for old_group in testbed.shard_groups.values():
        if old_group is group:
            continue
        for server in old_group:
            if server.process.alive:
                moved += server.handoff_to(group[0].shard_id, group[0].uadd)
                break
    return group, moved
