package core

import (
	"fmt"

	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// Downloads are the reverse of the paper's measured direction (Sec II
// notes the experiments "focus on the file-transfer operations ...
// uploading a file and downloading a file"). A detoured download flips
// the two hops: the DTN's relay agent downloads from the provider into
// the rsync staging area, and the client pulls the staged file.

// DirectDownload times a plain API download at the user machine.
func DirectDownload(p *simproc.Proc, client sdk.Client, name string) (Report, error) {
	t0 := p.Now()
	info, err := client.Download(p, name)
	if err != nil {
		return Report{}, fmt.Errorf("core: direct download: %w", err)
	}
	d := float64(p.Now() - t0)
	return Report{Route: DirectRoute, Total: d, Hop2: d, Info: info}, nil
}

type relayDownload struct {
	Name     string
	Provider string
}

// handleDownload is the detoured download's first hop: the agent pulls
// the object from the provider and stages it for the client to fetch.
func (a *Agent) handleDownload(p *simproc.Proc, c *transport.Conn, m relayDownload) {
	client, ok := a.clients[m.Provider]
	if !ok {
		_ = c.Send(p, relayResult{OK: false, Err: "unknown provider " + m.Provider}, ctrlBytes)
		return
	}
	t0 := p.Now()
	info, err := client.Download(p, m.Name)
	if err != nil {
		_ = c.Send(p, relayResult{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	a.daemon.Stage(&rsyncx.Staged{Name: info.Name, Size: info.Size, MD5: info.MD5})
	a.Relayed++
	_ = c.Send(p, relayResult{OK: true, Info: info, Seconds: float64(p.Now() - t0)}, ctrlBytes)
}

// Download performs a detoured download: command the agent to pull the
// object from the provider to the DTN (hop 1), then rsync-fetch it from
// the DTN's staging area (hop 2). Total = Hop1 + Hop2 (+ command RTTs),
// mirroring the store-and-forward upload.
func (d *DetourClient) Download(p *simproc.Proc, provider, name string) (Report, error) {
	t0 := p.Now()
	c, err := d.tn.Dial(p, d.from, d.dtn, AgentPort, transport.DialOpts{})
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent dial: %w", err)
	}
	defer hangUp(c)
	msg, err := c.Exchange(p, relayDownload{Name: name, Provider: provider}, ctrlBytes)
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent: %w", err)
	}
	res, ok := msg.Payload.(relayResult)
	if !ok {
		return Report{}, fmt.Errorf("core: detour agent sent %T", msg.Payload)
	}
	if !res.OK {
		return Report{}, fmt.Errorf("core: detour download hop1: %s", res.Err)
	}
	h0 := p.Now()
	st, err := d.Rsync.Fetch(p, name)
	if err != nil {
		return Report{}, fmt.Errorf("core: detour download hop2: %w", err)
	}
	if st.Size != res.Info.Size {
		return Report{}, fmt.Errorf("core: staged size %v != provider size %v", st.Size, res.Info.Size)
	}
	rep := Report{
		Route: d.Route(),
		Total: float64(p.Now() - t0),
		Hop1:  res.Seconds,
		Hop2:  float64(p.Now() - h0),
		Info:  res.Info,
	}
	d.Trace.Emit("detour.download.done", map[string]any{
		"from": d.from, "via": d.dtn, "provider": provider, "name": name,
		"bytes": rep.Info.Size, "total": rep.Total, "hop1": rep.Hop1, "hop2": rep.Hop2,
	})
	return rep, nil
}
