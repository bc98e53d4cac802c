class Tcp:  # events only at the connection timer and SYN retry (ONE005)
    def _send_segment(self, conn, seq):
        conn.unacked[seq] = self.scheduler.schedule(      # ONE005
            self.rto, lambda: None)
    def _flush(self):
        self.scheduler.call_soon(self._hand_up)           # ONE005
timer = scheduler.schedule(0.1, print)                    # ONE005


class SimTcpIpcs:
    def _send_open(self, conn):
        # The SYN retry: one of the three sites allowed to file events.
        conn.open_timer = self.scheduler.schedule(0.1, self._send_open)
