package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profiler CPU-profiles the traced batches, one profile file per batch,
// in a temporary directory under the working directory.
type profiler struct {
	dir   string
	files []string
	f     *os.File
}

func newProfiler() (*profiler, error) {
	dir, err := os.MkdirTemp(".", ".detourledger-prof-")
	if err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	return &profiler{dir: dir}, nil
}

func (p *profiler) start() error {
	f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("batch-%03d.pprof", len(p.files))))
	if err != nil {
		return fmt.Errorf("profile file: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start CPU profile: %w", err)
	}
	p.f = f
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	p.files = append(p.files, p.f.Name())
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("write CPU profile: %w", err)
	}
	return nil
}

func (p *profiler) cleanup() { os.RemoveAll(p.dir) }

// shares merges the batch profiles with `go tool pprof`, optionally
// writes the merged raw profile to out, and returns each layer's share
// of the sampled CPU time and the number of samples (10 ms each at the
// default profiling rate).
func (p *profiler) shares(out string) (map[string]float64, int, error) {
	if out != "" {
		args := append([]string{"tool", "pprof", "-proto", "-output", out}, p.files...)
		if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			return nil, 0, fmt.Errorf("go tool pprof -proto: %v: %s", err, msg)
		}
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, p.files...)...)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	traces, err := parseTraces(string(text))
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, tr := range traces {
		byLayer[attribute(tr.frames)] += tr.weight
		total += tr.weight
	}
	shares := map[string]float64{}
	if total > 0 {
		for layer, d := range byLayer {
			shares[layer] = float64(d) / float64(total)
		}
	}
	return shares, int(total / (10 * time.Millisecond)), nil
}

// trace is one sampled stack, leaf first, with its CPU time.
type trace struct {
	weight time.Duration
	frames []string
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// "-----------+---" lines, each starting with the sample's CPU time
// followed by the leaf frame, then one caller per line.
func parseTraces(text string) ([]trace, error) {
	var out []trace
	var cur *trace
	started := false // the header precedes the first separator
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			started, cur = true, nil
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if cur == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			out = append(out, trace{weight: d})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	return out, sc.Err()
}

// attribute charges a stack to the innermost frame that is not standard
// library or runtime code: an internal module, or "bench" for this
// benchmark's own code. Stacks with neither (GC workers, the scheduler)
// go to "runtime".
func attribute(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "detournet/internal/"); ok {
			return strings.FieldsFunc(rest, func(r rune) bool { return r == '.' || r == '/' })[0]
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "detournet/") {
			return "bench"
		}
	}
	return "runtime"
}
