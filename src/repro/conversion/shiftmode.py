"""Shift mode: endian-independent header encoding (paper Sec. 5.2).

"Message header information is transferred by byte shifting each header
integer sequentially into the final message, using standard high level
shift and mask routines. ... Byte ordering problems are hidden by the
high level shift/mask routines, and by transmitting the values as a
byte stream."

The wire contract is *most-significant byte first, four bytes per
word*, defined by the shift/mask arithmetic itself and therefore
identical on every architecture.  The original implementation here ran
the shifts one byte at a time in Python; that loop dominated the
header hot path, so the codecs now batch all words through
:mod:`struct` with an explicit big-endian format — ``">NI"`` is the
same function the shift loop computed, expressed once per header
instead of once per byte.  The contract is unchanged and locked by the
golden fixtures in ``tests/fixtures/wire/`` (frames captured from the
per-byte implementation).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import ConversionError

U32_BYTES = 4

# Compiled big-endian formats, one per word count.  Headers are twelve
# words, addresses two: the cache stays tiny and saves the per-call
# format parse.
_CODECS: Dict[int, struct.Struct] = {}


def u32_codec(count: int) -> struct.Struct:
    """The compiled shift-mode codec for ``count`` words: the same bytes
    as :func:`shift_encode_u32s` / :func:`shift_decode_u32s`.  A hot
    path with a fixed word count binds it once at import; it raises
    ``struct.error`` where the functions above raise
    :class:`ConversionError`, so such a caller checks lengths first and
    hands a failed encode to :func:`shift_encode_u32s` for the error."""
    codec = _CODECS.get(count)
    if codec is None:
        codec = _CODECS[count] = struct.Struct(">%dI" % count)
    return codec


def shift_encode_u32s(values: Sequence[int]) -> bytes:
    """Encode a sequence of 32-bit unsigned integers, four bytes each,
    most-significant byte first."""
    try:
        return u32_codec(len(values)).pack(*values)
    except struct.error:
        for value in values:
            if not 0 <= value <= 0xFFFFFFFF:
                raise ConversionError(
                    f"shift mode value {value} out of u32 range"
                )
        raise ConversionError(f"shift mode encode failed for {values!r}")


def shift_decode_u32s(data: Union[bytes, memoryview], count: int,
                      offset: int = 0) -> List[int]:
    """Decode ``count`` 32-bit integers from ``data`` starting at
    ``offset``.  Accepts a memoryview so callers can decode in place."""
    need = offset + count * U32_BYTES
    if len(data) < need:
        raise ConversionError(
            f"shift mode: need {need} bytes, have {len(data)}"
        )
    return list(u32_codec(count).unpack_from(data, offset))


# Credit words (PROTOCOL.md §12).  Flow control piggybacks a cumulative
# credit counter in the header aux word.  Aux zero has always meant "no
# auxiliary information" on DATA frames, so the encoding must never
# produce zero: bit 31 is a validity marker and the low 31 bits carry
# the counter.  A frame from a flow-disabled sender keeps aux == 0 and
# decodes as None — the ablation stays byte-identical off the wire.
CREDIT_VALID = 0x80000000
CREDIT_MASK = 0x7FFFFFFF


def shift_encode_credit(count: int) -> int:
    """Encode a cumulative credit counter into a nonzero aux word."""
    return CREDIT_VALID | (count & CREDIT_MASK)


def shift_decode_credit(word: int) -> Union[int, None]:
    """Decode an aux word into a credit counter, or None when the word
    carries no credit information (flow control off, or a pre-flow
    sender)."""
    if word & CREDIT_VALID:
        return word & CREDIT_MASK
    return None


def split_u64(value: int) -> Tuple[int, int]:
    """Split a 64-bit value into (high, low) 32-bit halves for headers
    built from 4-byte integers."""
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise ConversionError(f"{value} out of u64 range")
    return (value >> 32) & 0xFFFFFFFF, value & 0xFFFFFFFF


def join_u64(high: int, low: int) -> int:
    """Reassemble a 64-bit value from its header halves."""
    return ((high & 0xFFFFFFFF) << 32) | (low & 0xFFFFFFFF)
