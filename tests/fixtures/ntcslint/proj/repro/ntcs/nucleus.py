f = m.FLAG_PACKED | m.FLAG_INTERNAL     # ONE001: only Nucleus.control (§12)
g = FLAG_INTERNAL | x | FLAG_PACKED                 # ONE001
h = m.FLAG_PACKED | m.FLAG_REPLY_EXPECTED


class Nucleus:
    def control(self, kind):
        # The one control-frame builder: the one sanctioned spelling.
        return FLAG_PACKED | FLAG_INTERNAL
