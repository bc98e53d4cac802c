"""Seeded violation: the ALI veneer speaking the Name Service Protocol.

"The NSP-Layer is the single naming service access point for all layers
within the ComMod" (Sec. 2.4)."""


def farewell(lcm, ns_uadd, uadd):
    lcm.datagram(ns_uadd, "ns_deregister", {"uadd": uadd})   # line 8: LAY003
    return lcm.call(ns_uadd, type_name="ns_ping", values={})  # line 9: LAY003


def sanctioned(nsp, lcm, dst, uadd):
    nsp.deregister_on_death(uadd)             # through the NSP-Layer
    lcm.send(dst, "echo", {"ns_field": 1})    # not a naming message type
