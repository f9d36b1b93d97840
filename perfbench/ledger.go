package main

import (
	"fmt"
	"path"
	"regexp"
	"strconv"
	"strings"
)

// The per-layer ledger attributes every CPU-profile sample of a traced
// repetition to one layer, named after this repository's modules. A
// sample goes to the innermost stack frame that a layer rule matches,
// so standard-library helpers with no layer of their own (math, sort,
// reflect, strconv) count towards the module that called them; samples
// no rule matches go to "other", which keeps the layers summing to the
// profiled total.

// layerRule maps functions to a layer by name prefix and, for the sim
// package whose files are separate layers, by source file.
type layerRule struct {
	prefix, file, layer string
}

var layerRules = []layerRule{
	{"repro/internal/sim.", "engine.go", "sim.engine"},
	{"repro/internal/sim.", "events.go", "sim.engine"},
	{"repro/internal/sim.", "medium.go", "sim.medium"},
	{"repro/internal/sim.", "core.go", "sim.kernel"},
	{"repro/internal/sim.", "node.go", "sim.kernel"},
	{"repro/internal/sim.", "shard.go", "sim.lanes"},
	{"repro/internal/sim.", "", "sim.handlers"},
	{"repro/internal/mac.", "", "mac"},
	{"repro/internal/core.", "", "mac"},
	{"repro/internal/energy.", "", "energy"},
	{"repro/internal/battery.", "", "battery"},
	{"repro/internal/netserver.", "", "netserver"},
	{"repro/internal/lns.", "", "lns.lanes"},
	{"repro/internal/runner.", "", "runner"},
	{"repro/internal/experiment.", "", "experiment"},
	{"repro/internal/testbed.", "", "testbed"},
	{"repro/internal/lora.", "", "phy"},
	{"repro/internal/radio.", "", "phy"},
	{"repro/internal/", "", "support"},
	{"main.", "", "bench"},
	{"encoding/json.", "", "wire"},
	{"net/", "", "wire"},
	{"net.", "", "wire"},
	{"bufio.", "", "wire"},
	{"internal/poll.", "", "wire"},
	{"syscall.", "", "wire"},
	{"vendor/golang.org/x/net/", "", "wire"},
	{"runtime.", "", "runtime"},
	{"runtime/", "", "runtime"},
	{"internal/runtime/", "", "runtime"},
}

// layerOf returns the layer of a stack (leaf first), or "other".
func layerOf(stack []frame) string {
	for _, f := range stack {
		for _, r := range layerRules {
			if strings.HasPrefix(f.fn, r.prefix) && (r.file == "" || path.Base(f.file) == r.file) {
				return r.layer
			}
		}
	}
	return "other"
}

// bucket names the ledger entry of one sample. The generator's side of
// lns-ingest is all "loadgen" and the output checks are "bench"; wire
// code is the daemon's HTTP and JSON layer only on the daemon's side
// (anywhere else it is the benchmark's own); forecast work splits by
// phase so priming at construction shows apart from run-time
// forecasting.
func bucket(stack []frame, labels map[string]string) string {
	switch {
	case labels["side"] == "client":
		return "loadgen"
	case labels["phase"] == "check":
		return "bench"
	}
	switch l := layerOf(stack); l {
	case "wire":
		if labels["side"] == "server" {
			return "lns.wire"
		}
		return "bench"
	case "energy":
		if labels["phase"] == "setup" {
			return "energy.setup"
		}
		return "energy.run"
	default:
		return l
	}
}

// ledgerBuckets are every bucket the ledger reports, each as
// "<bucket>.self_s" — the per-layer self-time metric names.
var ledgerBuckets = []string{
	"sim.engine", "sim.medium", "sim.kernel", "sim.lanes", "sim.handlers",
	"mac", "energy.setup", "energy.run", "battery", "netserver",
	"lns.wire", "lns.lanes", "runner", "experiment", "testbed",
	"phy", "support", "runtime", "bench", "loadgen", "other",
}

func selfMetric(b string) string {
	switch b {
	case "energy.setup":
		return "energy.setup_self_s"
	case "energy.run":
		return "energy.run_self_s"
	}
	return b + ".self_s"
}

type frame struct{ fn, file string }

type sample struct {
	nanos  int64
	locs   []int
	labels map[string]string
}

type rawProfile struct {
	samples []sample
	locs    map[int][]frame // inlined frames innermost first
}

var (
	sampleLine = regexp.MustCompile(`^\s*(\d+)\s+(\d+):((?:\s+\d+)*)\s*$`)
	labelPair  = regexp.MustCompile(`(\S+?):\[([^\]]*)\]`)
	locLine    = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ (?:M=\d+ )?(?:\[F\] )?(.*)$`)
	lineSuffix = regexp.MustCompile(` s=\d+(?:\(.*\))?$`)
)

// parseRawProfile reads the text `go tool pprof -raw` prints for a CPU
// profile: samples with their location IDs and labels, then locations
// with their (inlined) frames.
func parseRawProfile(raw string) (*rawProfile, error) {
	p := &rawProfile{locs: map[int][]frame{}}
	section := ""
	cur := -1
	for _, line := range strings.Split(raw, "\n") {
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			if m := sampleLine.FindStringSubmatch(line); m != nil {
				nanos, _ := strconv.ParseInt(m[2], 10, 64)
				s := sample{nanos: nanos, labels: map[string]string{}}
				for _, f := range strings.Fields(m[3]) {
					id, _ := strconv.Atoi(f)
					s.locs = append(s.locs, id)
				}
				p.samples = append(p.samples, s)
			} else if len(p.samples) > 0 && strings.Contains(line, ":[") {
				for _, kv := range labelPair.FindAllStringSubmatch(line, -1) {
					p.samples[len(p.samples)-1].labels[kv[1]] = kv[2]
				}
			}
		case "Locations":
			rest := line
			if m := locLine.FindStringSubmatch(line); m != nil {
				cur, _ = strconv.Atoi(m[1])
				rest = m[2]
			}
			if f, ok := parseFrame(rest); ok && cur >= 0 {
				p.locs[cur] = append(p.locs[cur], f)
			}
		}
	}
	if len(p.samples) == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples")
	}
	return p, nil
}

// parseFrame splits "<function> <file>:<line>[:<col>] s=<start>".
func parseFrame(s string) (frame, bool) {
	s = lineSuffix.ReplaceAllString(strings.TrimSpace(s), "")
	i := strings.LastIndexByte(s, ' ')
	if i <= 0 {
		return frame{}, false
	}
	file := s[i+1:]
	if j := strings.IndexByte(file, ':'); j >= 0 {
		file = file[:j]
	}
	return frame{fn: s[:i], file: file}, true
}

// ledger is the bucketed profile.
type ledger struct {
	self    map[string]float64 // bucket -> self seconds
	total   float64
	samples int
}

func bucketProfile(p *rawProfile) *ledger {
	l := &ledger{self: map[string]float64{}, samples: len(p.samples)}
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		secs := float64(s.nanos) / 1e9
		l.self[bucket(stack, s.labels)] += secs
		l.total += secs
	}
	return l
}

// coveredFrac is the share of profiled CPU the named layers account for.
func (l *ledger) coveredFrac() float64 {
	if l.total == 0 {
		return 0
	}
	return 1 - l.self["other"]/l.total
}

// metrics returns every bucket's self seconds (zero when absent), the
// covered share and the profiled total.
func (l *ledger) metrics() map[string]float64 {
	m := map[string]float64{}
	for _, b := range ledgerBuckets {
		m[selfMetric(b)] = l.self[b]
	}
	m["ledger.covered_frac"] = l.coveredFrac()
	m["ledger.cpu_s"] = l.total
	return m
}
