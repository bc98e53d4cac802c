record.alive = False                    # ONE009: only NameDatabase writes a record (§9)
record.attrs = {"kind": "gateway"}      # ONE009
record.addresses += (("ring0", "b"),)   # ONE009
record.attrs.update(kind="gateway")     # ONE009
del record.registered_at                # ONE009
is_gateway = record.alive and record.attrs.get("kind") == "gateway"  # a read
