ip.route_cache.pop(net, None)       # ONE004: only the IP-Layer writes (§3)
ip.route_cache[net] = hop                           # ONE004
del stack.ip.route_cache[net]                       # ONE004
ip._suspect_gateways.add(gw)                        # ONE004
ip._suspect_gateways.discard(gw)                    # ONE004
ip._prime_index += 1                                # ONE004
ip.route_cache.clear()                              # ONE004
hop = ip.route_cache.get(net)                       # a read
