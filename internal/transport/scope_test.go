package transport

import (
	"testing"

	"detournet/internal/simproc"
)

// TestFlowLabelCarriesProcScope pins the transfer-scoped flow labels a
// multipath abort keys on: a scoped process's flows are labeled
// "scope|src->dst:port", an unscoped process's keep the bare endpoint
// label, and the scope follows the *sender*, not the connection — the
// same shared conn yields differently-scoped labels per Send.
func TestFlowLabelCarriesProcScope(t *testing.T) {
	n, r := world(t)
	fl := n.g.Fluid()
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		for {
			if _, err := c.Recv(p); err != nil {
				return
			}
		}
	})
	var labels []string
	r.Go("cli", func(p *simproc.Proc) {
		c, err := n.Dial(p, "client", "server", 80, DialOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		grab := func() {
			labels = append(labels, fl.SortedFlowLabels()...)
		}
		// Snapshot the in-flight flow's label by killing it mid-send:
		// schedule the grab strictly after the Send starts.
		p.Runner().Engine().After(0.5, grab)
		p.SetScope("mp:job-a")
		if err := c.Send(p, "x", 5e6); err != nil {
			t.Error(err)
			return
		}
		p.SetScope("")
		p.Runner().Engine().After(0.5, grab)
		if err := c.Send(p, "y", 5e6); err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	r.Run()
	if len(labels) != 2 {
		t.Fatalf("captured labels = %v, want one per Send", labels)
	}
	if labels[0] != "mp:job-a|client->server:80" {
		t.Errorf("scoped label = %q, want mp:job-a|client->server:80", labels[0])
	}
	if labels[1] != "client->server:80" {
		t.Errorf("unscoped label = %q, want client->server:80", labels[1])
	}
}
