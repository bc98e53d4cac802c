ivc.flow.credit                     # ONE002: the LCM keeps no flow books (§12)
lvc.rx_depth += 1                                   # ONE002
x = ivc.lvc
