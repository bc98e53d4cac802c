"""Unit tests for NTCS addressing: UAdds, TAdds, blobs, the cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NtcsError
from repro.ntcs.address import (
    Address,
    AddressCache,
    NAME_SERVER_UADD,
    TAddAllocator,
    blob_network,
    blob_protocol,
    make_uadd,
)


def test_uadd_basics():
    addr = make_uadd(42)
    assert not addr.temporary
    assert str(addr) == "U#42"


def test_tadd_allocator_is_local_and_monotonic():
    alloc_a = TAddAllocator()
    alloc_b = TAddAllocator()
    a1, a2 = alloc_a.allocate(), alloc_a.allocate()
    b1 = alloc_b.allocate()
    assert a1.temporary and a2.temporary
    assert a1 != a2
    # Only locally unique (Sec. 3.4): two modules produce equal TAdds.
    assert a1 == b1


def test_name_server_uadd_convention():
    assert NAME_SERVER_UADD == make_uadd(1)
    assert not NAME_SERVER_UADD.temporary


def test_server_id_namespacing():
    a = make_uadd(7, server_id=1)
    b = make_uadd(7, server_id=2)
    assert a != b


def test_address_value_range_enforced():
    with pytest.raises(NtcsError):
        Address(value=0)
    with pytest.raises(NtcsError):
        Address(value=2 ** 63)  # collides with the temporary bit


def test_wire_round_trip_preserves_temporary_bit():
    for addr in (make_uadd(99), Address(value=5, temporary=True)):
        high, low = addr.to_u32_pair()
        assert Address.from_u32_pair(high, low) == addr


@settings(max_examples=200, deadline=None)
@given(value=st.integers(1, 2 ** 63 - 1), temporary=st.booleans())
def test_property_wire_round_trip(value, temporary):
    addr = Address(value=value, temporary=temporary)
    assert Address.from_u32_pair(*addr.to_u32_pair()) == addr


def test_addresses_are_hashable_table_keys():
    table = {make_uadd(1): "a", Address(value=1, temporary=True): "b"}
    assert len(table) == 2  # UAdd 1 and TAdd 1 are distinct keys


# -- blob helpers -------------------------------------------------------------

def test_blob_helpers():
    assert blob_protocol("tcp:ether0:vax1:5000") == "tcp"
    assert blob_network("tcp:ether0:vax1:5000") == "ether0"
    assert blob_protocol("mbx:ring0://apollo2/mbx/ns") == "mbx"
    assert blob_network("mbx:ring0://apollo2/mbx/ns") == "ring0"


def test_malformed_blob_rejected():
    with pytest.raises(NtcsError):
        blob_network("garbage")


# -- the address cache ------------------------------------------------------

def test_cache_store_lookup_invalidate():
    cache = AddressCache()
    addr = make_uadd(10)
    assert cache.lookup(addr) is None
    cache.store(addr, "tcp:ether0:vax1:5000", "VAX")
    entry = cache.lookup(addr)
    assert entry.blob == "tcp:ether0:vax1:5000"
    assert entry.mtype_name == "VAX"
    cache.invalidate(addr)
    assert cache.lookup(addr) is None


def test_cache_tadd_purge():
    """A TAdd is unique only to the module that assigned it (Sec. 3.4):
    storing one caches nothing, so a TAdd purge has nothing to replace."""
    cache = AddressCache()
    tadd = Address(value=3, temporary=True)
    cache.store(tadd, "tcp:ether0:vax1:5000", "VAX")
    assert tadd not in cache and cache.lookup(tadd) is None
    assert len(cache) == 0 and cache.temporary_entries() == 0


def test_cache_purge_rules():
    cache = AddressCache()
    uadd = make_uadd(1)
    tadd = Address(value=1, temporary=True)
    cache.store(uadd, "tcp:ether0:vax1:5000", "VAX")
    # A TAdd with the same value is a different key, and is not stored:
    # it neither overwrites nor shadows the UAdd's entry.
    cache.store(tadd, "tcp:ether0:sun2:6000", "SUN")
    assert cache.lookup(uadd).blob == "tcp:ether0:vax1:5000"
    assert cache.lookup(tadd) is None
    # Invalidating a TAdd, or an absent UAdd, is a no-op.
    cache.invalidate(tadd)
    cache.invalidate(make_uadd(2))
    assert len(cache) == 1 and uadd in cache
    assert cache.temporary_entries() == 0
