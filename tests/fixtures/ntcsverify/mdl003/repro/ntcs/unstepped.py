"""MDL003 mutation fixture: a wire kind no machine can step.

The kind table holds ``BYE``, but no declared machine edge sends or
receives it, so a trace carrying one could not be stepped through the
model.
"""

HELLO = 1
DATA = 2
BYE = 3

KIND_NAMES = {
    HELLO: "HELLO",
    DATA: "DATA",
    BYE: "BYE",
}

PROTOCOL_MACHINE = {
    "name": "link",
    "initial": "NEW",
    "terminal": ("CLOSED",),
    "states": {
        "NEW": {"edges": ({"event": "send HELLO", "next": "OPEN"},)},
        "OPEN": {"edges": (
            {"event": "send DATA", "next": "OPEN", "progress": True},
            {"event": "local close", "next": "CLOSED"},
        )},
        "CLOSED": {},
    },
}
