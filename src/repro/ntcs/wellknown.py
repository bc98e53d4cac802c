"""The well-known address table (paper Sec. 3.4).

"A small number of 'well known' addresses are loaded into the ComMod
address tables when each module is initialized; those of the Name
Server and of certain 'prime' gateways.  Once in operation, other
(non-prime) gateways can be located through the naming service."

One :class:`WellKnownTable` is built per deployment and shared by every
module's Nucleus — the reproduction of compiling the same configuration
constants into every binary.  When the naming service is a fleet
(PROTOCOL.md §14) its directory is one of those constants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ntcs.address import Address, NAME_SERVER_UADD, blob_network


class WellKnownTable:
    """Bootstrap physical addresses: the Name Server's, per network it
    is directly reachable on, and one prime gateway per network that
    needs to route toward it."""

    def __init__(self, ns_uadd: Address = NAME_SERVER_UADD):
        self.ns_uadd = ns_uadd
        self._ns_blobs: Dict[str, str] = {}
        # Each network may know several prime gateways ("certain 'prime'
        # gateways", plural — Sec. 3.4); callers try them in order.
        self._prime_gateway_blobs: Dict[str, List[str]] = {}
        self._name_servers: Dict[int, List[Tuple[Address, str, str]]] = {}
        self._ns_mtypes: Dict[Address, str] = {}

    # -- construction ------------------------------------------------------

    def add_name_server_blob(self, blob: str) -> None:
        """Record the Name Server's listening blob (network implied)."""
        self._ns_blobs[blob_network(blob)] = blob

    def publish_name_servers(
            self, directory: Dict[int, List[Tuple[Address, str, str]]]) -> None:
        """Record the naming fleet: {shard id: [(uadd, listen blob,
        machine type name)]}, loaded into every module's tables when
        its NSP-Layer is initialized."""
        self._name_servers = directory
        self._ns_mtypes = {uadd: mtype_name
                           for entries in directory.values()
                           for uadd, _blob, mtype_name in entries}

    def add_prime_gateway(self, network: str, blob: str) -> None:
        """Record the blob, on ``network``, of a prime gateway modules
        on ``network`` may use to route toward the Name Server."""
        self._prime_gateway_blobs.setdefault(network, []).append(blob)

    # -- queries ----------------------------------------------------------

    def blob_for(self, addr: Address, network: str) -> Optional[str]:
        """The well-known blob for ``addr`` on ``network``, if any.
        Only the Name Server has one."""
        if addr == self.ns_uadd:
            return self._ns_blobs.get(network)
        return None

    def mtype_for(self, addr: Address) -> str:
        """The machine type the published naming fleet records for
        ``addr``; "" when it records none."""
        return self._ns_mtypes.get(addr, "")

    def name_servers(self) -> Dict[int, List[Tuple[Address, str, str]]]:
        """The published naming fleet — or, when none was, the one
        conventional Name Server (its blob is per network:
        :meth:`blob_for`)."""
        return self._name_servers or {0: [(self.ns_uadd, "", "")]}

    def ns_networks(self) -> List[str]:
        """Networks the Name Server is directly attached to."""
        return sorted(self._ns_blobs)

    def ns_reachable_directly(self, network: str) -> bool:
        """True when the Name Server listens on this network."""
        return network in self._ns_blobs

    def prime_gateway_blob(self, network: str, index: int = 0) -> Optional[str]:
        """The ``index``-th (mod count) prime gateway blob for
        ``network``, or None when the network has no primes."""
        blobs = self._prime_gateway_blobs.get(network)
        if not blobs:
            return None
        return blobs[index % len(blobs)]

    def prime_gateway_count(self, network: str) -> int:
        """How many prime gateways a network has configured."""
        return len(self._prime_gateway_blobs.get(network, []))
