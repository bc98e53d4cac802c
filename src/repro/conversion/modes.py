"""Transfer-mode selection and body encoding (paper Secs. 5 & 5.1).

"Messages between identical machines are simply byte-copied (image
mode) while those between incompatible machines are transmitted in a
converted representation (packed mode).  The NTCS determines the
correct mode based on the source and destination machine types, thus
avoiding needless conversions."

The sender-side flow mirrors the C original: the application hands the
NTCS the *memory image* of its message (here: the image encoding under
the source machine's byte order).  If the destination is
image-compatible the bytes go out untouched; otherwise the pack routine
reads the fields out of the image and emits the character transport
format, and the destination's unpack routine rebuilds a native image.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.conversion.registry import ConversionRegistry, RegistryEntry
from repro.errors import ConversionError
from repro.machine.arch import MachineType
from repro.util.counters import (
    IMAGE_RECEIVES, IMAGE_SENDS, PACK_CALLS, UNPACK_CALLS)

IMAGE = 0
PACKED = 1


def choose_mode(src: MachineType, dst: MachineType) -> int:
    """The paper's rule: image between identical machine types, packed
    between incompatible ones."""
    return IMAGE if src.image_compatible(dst) else PACKED


def encode_body(
    registry: ConversionRegistry,
    type_id: int,
    native_image: bytes,
    src: MachineType,
    dst: MachineType,
    mode: int = None,
) -> Tuple[int, bytes]:
    """Prepare a message body for the wire.

    Args:
        registry: message-type registry (supplies pack routines).
        type_id: the message's registered type.
        native_image: the message as it sits in the sender's memory.
        src, dst: source and destination machine types.
        mode: force a mode (for the E7 corruption demonstration);
            normally None, meaning :func:`choose_mode` decides.

    Returns:
        (mode, wire_bytes).
    """
    entry, compatible = registry.lookup_route(type_id, src, dst)
    if mode is None:
        mode = IMAGE if compatible else PACKED
    if mode == IMAGE:
        registry.counters[IMAGE_SENDS] += 1
        return IMAGE, native_image
    values = entry.sdef.image_decode(native_image, src.struct_prefix)
    registry.counters[PACK_CALLS] += 1
    return PACKED, entry.pack(values)


def encode_values(
    registry: ConversionRegistry,
    type_id: int,
    values: Dict[str, Any],
    src: MachineType,
    dst: MachineType,
    mode: int = None,
) -> Tuple[int, bytes]:
    """Convenience for senders that hold field values rather than a
    prebuilt image: apply the (cached) mode rule, then materialize the
    source-machine memory image only when it actually goes on the wire
    — the pack routine reads the field values directly."""
    entry, compatible = registry.lookup_route(type_id, src, dst)
    if mode is None:
        mode = IMAGE if compatible else PACKED
    if mode == IMAGE:
        registry.counters[IMAGE_SENDS] += 1
        return IMAGE, entry.sdef.image_encode(values, src.struct_prefix)
    registry.counters[PACK_CALLS] += 1
    return PACKED, entry.pack(values)


def decode_body(
    registry: ConversionRegistry,
    type_id: int,
    mode: int,
    wire: bytes,
    dst: MachineType,
    entry: Optional[RegistryEntry] = None,
) -> Dict[str, Any]:
    """Recover field values from a wire body on the destination.

    In image mode the bytes are reinterpreted under the *destination's*
    byte order — which corrupts multi-byte values if the mode decision
    was wrong, exactly as on the paper's hardware.  A receiver that
    already resolved the registry entry may pass it to skip the second
    lookup.
    """
    if entry is None:
        entry = registry.get(type_id)
    if mode == IMAGE:
        registry.counters[IMAGE_RECEIVES] += 1
        return entry.sdef.image_decode(wire, dst.struct_prefix)
    if mode == PACKED:
        registry.counters[UNPACK_CALLS] += 1
        return entry.unpack(wire)
    raise ConversionError(f"unknown transfer mode {mode}")
