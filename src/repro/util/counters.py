"""The NTCS metric catalogue and its per-owner stores.

Several experiments assert *absence* claims from the paper — e.g.
"no inter-gateway communication ever takes place" (Sec. 4.2) and
"no needless conversions" (Sec. 5).  Absence is only checkable when the
relevant events are counted at the point they would occur, so each
count is declared once below — name, kind, owning store, meaning — and
a site bumps its constant with a plain dict update on the owner's
:class:`Counters` (``nucleus.counters[IP_CREDIT_STALLS] += 1``): no
Python call, and an undeclared name raises ``KeyError``.
``tests/test_counter_catalogue.py`` checks every site statically and
diffs :func:`catalogue_table` against PROTOCOL.md §15.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterator, NamedTuple, Tuple

COUNT, HIGH_WATER, BUCKET = "count", "high-water", "histogram bucket"
NUCLEUS, REGISTRY, NAME_SERVER = "Nucleus", "ConversionRegistry", "NameServer"

Metric = NamedTuple("Metric", [("name", str), ("kind", str),
                               ("owner", str), ("meaning", str)])
CATALOGUE: Dict[str, Metric] = {}
_ZEROS: Dict[str, Dict[str, int]] = {NUCLEUS: {}, REGISTRY: {}, NAME_SERVER: {}}


def declare(owner: str, name: str, meaning: str, kind: str = COUNT) -> str:
    """Declare one metric of ``owner``'s store; returns its name, the
    key every site and reader uses."""
    if name in CATALOGUE:
        raise ValueError(f"metric {name!r} declared twice")
    CATALOGUE[name] = Metric(name, kind, owner, meaning)
    _ZEROS[owner][name] = 0
    return name


_nucleus = partial(declare, NUCLEUS)
_registry = partial(declare, REGISTRY)
_name_server = partial(declare, NAME_SERVER)

# -- ND-Layer ----------------------------------------------------------------
ND_MESSAGES_SENT = _nucleus("nd_messages_sent", "frames handed to the IPCS")
ND_OPEN_RETRIES = _nucleus("nd_open_retries", "LVC connects refused and retried")
ND_MALFORMED_MESSAGES = _nucleus("nd_malformed_messages", "frames failing decode or checksum")
ND_CHANNEL_FAULTS = _nucleus("nd_channel_faults", "LVCs closed under us")
TADDS_ASSIGNED = _nucleus("tadds_assigned_for_inbound", "TAdds given to inbound TAdd sources")
TADDS_PURGED = _nucleus("tadds_purged", "TAdds replaced by the UAdd they stood for")
# -- IP-Layer ----------------------------------------------------------------
IVC_DIRECT_OPENED = _nucleus("ivc_direct_opened", "IVCs opened straight to the peer")
IVC_CHAINED_OPENED = _nucleus("ivc_chained_opened", "IVCs opened through gateways")
IVC_OPEN_REFUSED = _nucleus("ivc_open_refused_not_gateway", "chained opens NAKed by a non-gateway")
TOPOLOGY_QUERIES = _nucleus("topology_queries", "gateway lists fetched to plan a route")
IP_SUSPECT_FALLBACKS = _nucleus("ip_suspect_fallbacks", "routes planned through a suspect gateway")
IP_CLOSE_NOTIFY_LOST = _nucleus("ip_close_notify_lost", "IVC_CLOSEs lost to a dead channel")
IP_CREDIT_STALLS = _nucleus("ip_credit_stalls", "sends parked for flow-control credit")
IP_CREDIT_PROBES = _nucleus("ip_credit_probes", "CREDIT_PROBE frames sent")
IP_CREDIT_GRANTS = _nucleus("ip_credit_grants", "CREDIT_GRANT frames sent")
IP_CREDIT_RESYNCS = _nucleus("ip_credit_resyncs", "probes resyncing a repaired circuit")
LVC_RX_QUEUE_HIGH_WATER = _nucleus("lvc_rx_queue_high_water", "deepest LVC receive queue", HIGH_WATER)
# -- ALI ---------------------------------------------------------------------
ALI_SEND_BLOCKED = _nucleus("ali_send_blocked", "one-way sends refused or parked for credit")
# -- LCM-Layer ---------------------------------------------------------------
LCM_CIRCUIT_FAULTS = _nucleus("lcm_circuit_faults", "IVC faults reported up")
LCM_CIRCUIT_REPAIRS = _nucleus("lcm_circuit_repairs", "repair rounds run and repairs completed")
REPAIR_BACKOFF_BUCKETS = tuple(  # bucket k counts round k + 1; the last is open-ended
    _nucleus(f"repair_backoff_bucket_{k}", f"repair rounds numbered {k + 1}"
             f"{' and up' if k == 7 else ''}", BUCKET) for k in range(8))
IVC_REOPEN_ATTEMPTS = _nucleus("ivc_reopen_attempts", "IVC opens made to repair a route")
LCM_CALL_RETRIES = _nucleus("lcm_call_retries", "calls re-sent after their circuit died")
LCM_ADDRESS_FAULTS = _nucleus("lcm_address_faults", "Sec. 3.5 address faults handled")
NS_FAULT_PATCH_HITS = _nucleus("ns_fault_patch_hits", "Name Server faults retried by the Sec. 6.3 patch")
LCM_RECONNECT_ATTEMPTS = _nucleus("lcm_reconnect_attempts", "faults on a module still alive")
LCM_RELOCATIONS_FOLLOWED = _nucleus("lcm_relocations_followed", "forwarding UAdds followed")
LCM_FORWARDING_COMPRESSIONS = _nucleus("lcm_forwarding_compressions", "forwarding chains path-compressed")
DATAGRAMS_DROPPED = _nucleus("datagrams_dropped", "datagrams the sender failed to send")
DROP_CONNECTIONLESS = _nucleus("drop_connectionless", "datagrams dropped for credit or at the watermark")
LCM_UNEXPECTED_KINDS = _nucleus("lcm_unexpected_kinds", "non-DATA kinds delivered to the LCM")
LCM_UNDECODABLE_MESSAGES = _nucleus("lcm_undecodable_messages", "bodies that failed to decode")
LCM_ORPHAN_REPLIES = _nucleus("lcm_orphan_replies", "replies no call was waiting for")
LCM_DUPLICATES_SUPPRESSED = _nucleus("lcm_duplicate_requests_suppressed", "redelivered requests not re-run")
# -- NSP-Layer ---------------------------------------------------------------
NSP_CALLS = _nucleus("nsp_calls", "naming-service round trips started")
NSP_CALLS_COALESCED = _nucleus("nsp_calls_coalesced", "resolutions joined to one in flight")
NSP_BATCH_RESOLVES = _nucleus("nsp_batch_resolves", "ns_resolve_batch replies absorbed")
NSP_SHARD_REDIRECTS = _nucleus("nsp_shard_redirects", "ns_shard_redirect replies followed")
NSP_SHARD_RING_UPDATES = _nucleus("nsp_shard_ring_updates", "shards learned from a redirect")
NS_FAILOVERS = _nucleus("ns_failovers", "naming calls failed over to another replica")
NSP_CACHE_HITS = _nucleus("nsp_cache_hits", "resolution-cache hits")
NSP_CACHE_MISSES = _nucleus("nsp_cache_misses", "resolution-cache misses")
NSP_CACHE_INVALIDATIONS = _nucleus("nsp_cache_invalidations", "cache entries flushed or evicted")
# -- Nucleus -----------------------------------------------------------------
ERRORS_LOGGED = _nucleus("errors_logged", "errors recorded by Nucleus.log_error")
# -- Gateway (bumped on the stack where the event happens) -------------------
GATEWAY_CIRCUITS_ESTABLISHED = _nucleus("gateway_circuits_established", "splices made (inbound stack)")
GATEWAY_CIRCUITS_REFUSED = _nucleus("gateway_circuits_refused", "IVC_OPENs refused (inbound stack)")
GATEWAY_FRAMES_SPLICED = _nucleus("gateway_frames_spliced", "frames forwarded zero-copy (outbound stack)")
GATEWAY_TEARDOWNS = _nucleus("gateway_teardowns_propagated", "splices dismantled (surviving leg)")
GATEWAY_CREDIT_DROPS = _nucleus("gateway_credit_overruns_dropped", "frames dropped past 2x window (outbound)")
GATEWAY_CREDIT_CLAMPS = _nucleus("gateway_credit_clamps", "advertisements clamped (outbound stack)")
GATEWAY_STALE_ADDR_FALLBACKS = _nucleus("gateway_stale_addr_fallbacks", "stale final-hop blobs re-resolved")
GATEWAY_MESSAGES_DROPPED = _nucleus("gateway_messages_dropped", "frames lost to a dead outbound leg")
GATEWAY_NAK_LOST = _nucleus("gateway_nak_lost", "IVC_OPEN_NAKs lost to a dead opener")
GATEWAY_CLOSE_NOTIFY_LOST = _nucleus("gateway_close_notify_lost", "IVC_CLOSEs lost to a dead leg")
GATEWAY_LEGS_REUSED = _nucleus("gateway_legs_reused", "circuits opened on a parked leg (outbound stack)")
# -- ConversionRegistry ------------------------------------------------------
CODEC_CACHE_HITS = _registry("codec_cache_hits", "(type, src, dst) route-cache hits")
CODEC_CACHE_MISSES = _registry("codec_cache_misses", "(type, src, dst) route-cache misses")
IMAGE_SENDS = _registry("image_sends", "bodies sent byte-copied (image mode)")
PACK_CALLS = _registry("pack_calls", "bodies packed for an unlike machine")
IMAGE_RECEIVES = _registry("image_receives", "image-mode bodies received")
UNPACK_CALLS = _registry("unpack_calls", "packed bodies unpacked")
# -- NameServer (its per-request-type counts: naming/server.py) --------------
NS_UNKNOWN_REQUESTS = _name_server("unknown_requests", "requests of no served type")
NS_REDIRECTS_SERVED = _name_server("shard_redirects_served", "requests redirected to their shard")
NS_ANTIENTROPY_SERVED = _name_server("antientropy_served", "anti-entropy pulls answered")
NS_ANTIENTROPY_ROUNDS = _name_server("antientropy_rounds", "anti-entropy pulls completed")
NS_ANTIENTROPY_SKIPPED = _name_server("antientropy_skipped", "anti-entropy peers unreachable")
NS_ANTIENTROPY_APPLIED = _name_server("antientropy_records_applied", "records merged by anti-entropy")
NS_HANDOFF_RECORDS_IN = _name_server("handoff_records_in", "records received in shard handoffs")
NS_HANDOFF_RECORDS_OUT = _name_server("handoff_records_out", "records shipped in shard handoffs")


class Counters(dict):
    """One owner's store: every metric declared for ``owner``, from 0.
    Sites update it as the plain dict it is; ``in``, iteration (sorted
    ``(name, count)`` pairs) and :meth:`snapshot` see only the metrics
    that have moved."""

    __slots__ = ()

    def __init__(self, owner: str):
        super().__init__(_ZEROS[owner])

    def __contains__(self, name: object) -> bool:
        return bool(self.get(name))

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def snapshot(self) -> Dict[str, int]:
        """A copy of the metrics that have moved."""
        return {name: count for name, count in self.items() if count}


def catalogue_table() -> str:
    """The catalogue as a markdown table, in declaration order."""
    rows = ["| name | kind | owner | meaning |", "|---|---|---|---|"]
    rows += [f"| `{m.name}` | {m.kind} | {m.owner} | {m.meaning} |"
             for m in CATALOGUE.values()]
    return "\n".join(rows) + "\n"
