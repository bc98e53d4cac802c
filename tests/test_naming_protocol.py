"""Unit tests for the naming-service wire encodings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.naming import protocol as p
from repro.naming.protocol import NameRecord
from repro.ntcs.address import make_uadd


def test_attrs_round_trip():
    attrs = {"kind": "gateway", "networks": "ether0,ring0", "x": "a=b;c"}
    assert p.decode_attrs(p.encode_attrs(attrs)) == attrs


def test_attrs_empty():
    assert p.encode_attrs({}) == ""
    assert p.decode_attrs("") == {}


def test_attrs_escaping_of_every_delimiter():
    attrs = {"k;=%,|": "v\n;=%"}
    assert p.decode_attrs(p.encode_attrs(attrs)) == attrs


def test_attrs_malformed_rejected():
    with pytest.raises(ProtocolError):
        p.decode_attrs("novalue")


def test_addresses_round_trip():
    addresses = [("ether0", "tcp:ether0:vax1:5000"),
                 ("ring0", "mbx:ring0://apollo2/mbx/gw")]
    assert p.decode_addresses(p.encode_addresses(addresses)) == addresses


def test_addresses_empty():
    assert p.decode_addresses("") == []


def test_addresses_malformed_rejected():
    with pytest.raises(ProtocolError):
        p.decode_addresses("no-pipe-here")


def test_record_round_trip():
    record = NameRecord(
        name="index.server",
        uadd=make_uadd(7),
        mtype_name="Sun-3",
        attrs={"kind": "index", "shard": "3"},
        addresses=[("ether0", "tcp:ether0:sun1:40001")],
        alive=True,
        registered_at=12.5,
    )
    back = NameRecord.decode(record.encode())
    assert back == record


def test_records_list_round_trip():
    records = [
        NameRecord(name=f"m{i}", uadd=make_uadd(i + 1), mtype_name="VAX",
                   addresses=[("ether0", f"tcp:ether0:vax1:{5000 + i}")])
        for i in range(4)
    ]
    assert p.decode_records(p.encode_records(records)) == records
    assert p.decode_records(p.encode_records([])) == []


def test_record_malformed_rejected():
    with pytest.raises(ProtocolError):
        NameRecord.decode("only\ntwo")


def test_record_helpers():
    record = NameRecord(
        name="gw", uadd=make_uadd(2), mtype_name="Apollo",
        attrs={"kind": "gateway"},
        addresses=[("ether0", "blob-a"), ("ring0", "blob-b")],
    )
    assert record.networks() == ["ether0", "ring0"]
    assert record.blob_on("ring0") == "blob-b"
    assert record.blob_on("nowhere") is None
    assert record.is_gateway


def test_register_payload_round_trip():
    attrs = {"kind": "search"}
    addresses = [("ether0", "tcp:ether0:sun1:40002")]
    payload = p.encode_register_payload(attrs, addresses)
    assert p.decode_register_payload(payload) == (attrs, addresses)
    assert p.decode_register_payload(
        p.encode_register_payload({}, [])) == ({}, [])


def test_register_payload_malformed():
    with pytest.raises(ProtocolError):
        p.decode_register_payload(b"no separator")


_name_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(
    name=_name_text,
    uadd=st.integers(1, 2 ** 48),
    attrs=st.dictionaries(_name_text, _name_text, max_size=5),
    nets=st.lists(st.tuples(_name_text, _name_text), max_size=4),
    alive=st.booleans(),
)
def test_property_record_round_trip(name, uadd, attrs, nets, alive):
    record = NameRecord(name=name, uadd=make_uadd(uadd), mtype_name="VAX",
                        attrs=attrs, addresses=nets, alive=alive)
    assert NameRecord.decode(record.encode()) == record


def _plain_wire_form(name, uadd, mtype_name, attrs, addresses, alive,
                     registered_at):
    """A record's wire form spelled from a plain dict and list, the
    field types a record held before it was slotted."""
    return "\n".join([
        p._escape(name), str(uadd.value), p._escape(mtype_name),
        ";".join(f"{p._escape(k)}={p._escape(v)}"
                 for k, v in sorted(dict(attrs).items())),
        ",".join(f"{p._escape(net)}|{p._escape(blob)}"
                 for net, blob in list(addresses)),
        "1" if alive else "0", repr(registered_at),
    ])


@settings(max_examples=150, deadline=None)
@given(
    name=_name_text,
    uadd=st.integers(1, 2 ** 48),
    attrs=st.dictionaries(_name_text, _name_text, max_size=5),
    nets=st.lists(st.tuples(_name_text, _name_text), max_size=4),
    alive=st.booleans(),
    registered_at=st.floats(min_value=0, max_value=1e9),
)
def test_property_record_wire_form_is_unchanged(name, uadd, attrs, nets,
                                                alive, registered_at):
    """A slotted record with read-only attrs and tuple addresses encodes
    byte for byte as the dict-and-list record did, built locally or
    decoded from the wire."""
    fields = (name, make_uadd(uadd), "VAX", attrs, nets, alive,
              registered_at)
    wire = _plain_wire_form(*fields)
    record = NameRecord(*fields)
    assert record.encode() == wire
    assert NameRecord.decode(wire).encode() == wire
    (decoded,) = p.decode_records(p.encode_records([record]))
    assert decoded.encode() == wire


def test_record_location_prefers_the_asking_network():
    """The one rule for the blob a module keeps in its Sec. 3.3 cache:
    the record's address on the module's own network, else its first."""
    record = NameRecord(
        name="gw", uadd=make_uadd(2), mtype_name="Apollo",
        addresses=[("ether0", "blob-a"), ("ring0", "blob-b")],
    )
    assert record.location("ring0") == ("ring0", "blob-b")
    assert record.location("net9") == ("ether0", "blob-a")
    assert NameRecord(name="x", uadd=make_uadd(3),
                      mtype_name="VAX").location("ether0") is None


# -- hostile bytes: every decoder returns a value or raises ProtocolError -----

_GOLDEN = NameRecord(
    name="echo.server", uadd=make_uadd(17), mtype_name="Sun-3",
    attrs={"kind": "echo"}, addresses=[("ether0", "tcp:ether0:sun1:5002")],
    registered_at=0.125,
)
_VALID = [
    p.encode_records([_GOLDEN, _GOLDEN]),
    p.encode_stamped_records([(4, _GOLDEN)]),
    p.encode_batch_payload(["no.such"], [_GOLDEN]),
    p.encode_register_payload({"kind": "echo"}, _GOLDEN.addresses),
]
# Fragments that steer random input into the decoders' branches: every
# separator, escapes, numbers that do not fit, and non-ASCII bytes.
_PIECES = [b"\x1d", b"\x1e", b"\x1f", b"\n", b"|", b",", b";", b"=", b"%",
           b"%3B", b"0", b"17", b"-3", b"9" * 20, b"1e999", b"nan", b"x",
           b"\xff", b"\x80"]


def _mutate(case):
    valid, position, patch = case
    cut = position % (len(valid) + 1)
    return valid[:cut] + patch + valid[cut + 1:]


_WIRE = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join),
    st.tuples(st.sampled_from(_VALID), st.integers(0, 10 ** 4),
              st.binary(max_size=3)).map(_mutate),
)

# Every decoder in repro.naming.protocol, by what it takes off the wire.
_BYTES_DECODERS = {
    "decode_text": p.decode_text,
    "decode_records": p.decode_records,
    "decode_register_payload": p.decode_register_payload,
    "decode_batch_payload": p.decode_batch_payload,
    "decode_stamped_records": p.decode_stamped_records,
}
_TEXT_DECODERS = {
    "decode_attrs": p.decode_attrs,
    "decode_addresses": p.decode_addresses,
    "decode_name_list": p.decode_name_list,
    "NameRecord.decode": NameRecord.decode,
}


def test_the_fuzzed_decoders_are_all_of_them():
    decoders = {name for name in dir(p) if name.startswith("decode_")}
    assert decoders | {"NameRecord.decode"} == \
        set(_BYTES_DECODERS) | set(_TEXT_DECODERS)


@settings(max_examples=400, deadline=None)
@given(data=_WIRE)
def test_property_decoders_return_or_raise_protocol_error(data):
    """Arbitrary, structured and mutated bytes: a value or a
    ``ProtocolError``, never ``UnicodeDecodeError`` or ``ValueError``."""
    calls = [(decode, data) for decode in _BYTES_DECODERS.values()]
    calls += [(decode, data.decode("latin-1"))
              for decode in _TEXT_DECODERS.values()]
    outcomes = []
    for decode, arg in calls:
        try:
            outcomes.append(decode(arg))
        except ProtocolError as exc:
            outcomes.append(exc)
    assert len(outcomes) == len(calls)


@pytest.mark.parametrize("data", [
    b"\xff",
    b"n\nNaN\nVAX\n\n\n1\n0.0",         # a UAdd that is not an integer
    b"n\n0\nVAX\n\n\n1\n0.0",           # a UAdd out of range
    b"n\n17\nVAX\n\n\n1\nlater",        # a registered_at that is no float
])
def test_malformed_record_is_a_protocol_error(data):
    with pytest.raises(ProtocolError):
        p.decode_records(data)


def test_malformed_stamp_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        p.decode_stamped_records(b"four\x1f" + _GOLDEN.encode().encode())
