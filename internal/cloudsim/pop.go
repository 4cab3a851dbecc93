package cloudsim

import (
	"slices"

	"detournet/internal/httpsim"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// POP is a provider edge point-of-presence: a reverse proxy near the
// clients that terminates TLS and forwards API requests to the home
// datacenter over the provider's (presumably well-provisioned) path.
//
// The paper's Sec I remedy — "the identification of these inefficiencies
// may encourage cloud-storage providers to add additional POPs or
// gateways" — is exactly this object: a provider-operated detour. The
// POP ablation benchmark measures whether a Vancouver Google POP would
// have made the paper's UAlberta detour unnecessary.
type POP struct {
	// Host is the edge node the POP serves from.
	Host string
	// Forwarded counts proxied requests.
	Forwarded int

	svc      *Service
	upstream *httpsim.Client
}

// StartPOP runs an edge POP for the service on popHost. Clients use the
// provider SDK pointed at popHost instead of the datacenter; every
// request is forwarded upstream and the response relayed back. The POP
// is stateless: sessions, auth, and storage all live at the datacenter.
func StartPOP(tn *transport.Net, svc *Service, popHost string) *POP {
	pop := &POP{
		Host:     popHost,
		svc:      svc,
		upstream: httpsim.NewClient(tn, popHost, APIPort, true),
	}
	l := tn.MustListen(popHost, APIPort)
	r := tn.Runner()
	r.Go("pop:"+popHost, func(p *simproc.Proc) {
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			r.Go("pop-conn:"+c.RemoteHost(), func(hp *simproc.Proc) {
				pop.serve(hp, c)
				c.Release() // serve closed it
			})
		}
	})
	return pop
}

func (pop *POP) serve(p *simproc.Proc, c *transport.Conn) {
	defer c.Close()
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return
		}
		req, ok := msg.Payload.(*httpsim.Request)
		if !ok {
			return
		}
		// Forward upstream with the datacenter as the new host. The
		// upstream connection is kept alive across requests, so chunked
		// uploads ride one ramped connection POP->DC. The forwarded
		// copy has its own header: when the upstream exchange fails the
		// POP answers at once, and the client may then reuse its request
		// while the datacenter still reads the copy.
		fwd := *req
		fwd.Host = pop.svc.Host
		fwd.Header = slices.Clone(req.Header)
		resp, err := pop.upstream.Do(p, &fwd)
		if err != nil {
			resp = &httpsim.Response{
				Status: httpsim.StatusInternalServerError,
				Body:   []byte("pop: upstream: " + err.Error()),
			}
		}
		pop.Forwarded++
		if err := c.Send(p, resp, resp.Size()); err != nil {
			return
		}
	}
}
