// Overload: a flash crowd hits the scheduler at several times the
// sustainable service rate — four steady tenants sync all day, a fifth
// tenant dumps a burst, and mid-burst the detour's first-hop link
// degrades. The example replays the identical trace twice: a control
// run (unbounded queue, no shedding, no fairness, no hedging) and an
// overload run (bounded queue with per-tenant quotas, CoDel-style
// queue-delay shedding, weighted DRR fair queuing, hedged transfers,
// brownout degradation), then compares goodput, per-tenant fairness
// (Jain's index), and queue delay.
//
// The replay is deterministic (see internal/replay): one worker, and
// trace arrivals are injected the instant a transfer carries the
// virtual clock past them, so a fixed seed reproduces every shed,
// rejection, and hedge.
package main

import (
	"os"

	"detournet/internal/replay"
)

func main() {
	replay.WriteOverload(os.Stdout, 2015)
}
