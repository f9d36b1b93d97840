package main

import (
	"math"
	"testing"
)

// rawFixture is `go tool pprof -raw` output in the shape the Go 1.24
// toolchain prints: two label sets, an inlined location, a location
// without symbols, and a generic function whose name holds spaces.
const rawFixture = `PeriodType: cpu nanoseconds
Period: 10000000
Time: 2026-10-17 01:54:00.083582534 +0000 UTC
Duration: 2.10
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2
                phase:[setup]
          2   20000000: 3 2
                phase:[run]
          4   40000000: 4 5
                phase:[run] side:[client]
          1   10000000: 6
          5   50000000: 7 8
                phase:[run] side:[server]
          2   20000000: 9
          1   10000000: 7 10
                phase:[check]
Locations
     1: 0x4beaa7 M=1 math.Exp /usr/local/go/src/math/exp.go:10:0 s=9
             repro/internal/energy.(*DiurnalEWMA).Prime repro/internal/energy/forecast.go:400:0 s=380
     2: 0x4bd34b M=1 repro/internal/sim.New repro/internal/sim/sim.go:150:0 s=123
     3: 0x4bea4f M=1 repro/internal/energy.(*DiurnalEWMA).Observe repro/internal/energy/forecast.go:200:0 s=190
     4: 0x43a2aa M=1 net/http.(*persistConn).readLoop net/http/transport.go:2200:0 s=2190
     5: 0x43a2ab M=1 main.runOpenLoop.func2 repro/perfbench/lns.go:400:0 s=390
     6: 0x4bea57 M=1
     7: 0x4bea58 M=1 encoding/json.(*decodeState).object encoding/json/decode.go:600:0 s=580
     8: 0x4bea59 M=1 repro/internal/lns.(*Daemon).Handler.func4 repro/internal/lns/daemon.go:480:0 s=470
     9: 0x4bea60 M=1 slices.SortFunc[go.shape.struct { A int; B float64 }] slices/sort.go:20:0 s=10
             repro/internal/sim.(*Medium).beginUplink repro/internal/sim/medium.go:210:0 s=200
    10: 0x4bea61 M=1 main.runSim.func3 repro/perfbench/sims.go:95:0 s=93
Mappings
1: 0x400000/0x4bf000/0x0 /tmp/exe/perfbench 45307f33adf485c059a1e20f7feb514ea1180d4a [FN]
`

func TestBucketProfile(t *testing.T) {
	p, err := parseRawProfile(rawFixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(p.samples))
	}
	l := bucketProfile(p)
	want := map[string]float64{
		"energy.setup": 0.03, // math.Exp inlined into Prime, under sim.New, in set-up
		"energy.run":   0.02,
		"loadgen":      0.04, // client side, whatever the functions
		"other":        0.01, // no symbols
		"lns.wire":     0.05, // JSON decode under the daemon's handler
		"sim.medium":   0.02, // a generic helper counts towards its caller
		"bench":        0.01, // JSON while checking outputs is the benchmark's
	}
	for b, v := range want {
		if math.Abs(l.self[b]-v) > 1e-12 {
			t.Errorf("bucket %s = %v s, want %v s", b, l.self[b], v)
		}
	}
	var sum float64
	for _, v := range l.self {
		sum += v
	}
	if math.Abs(sum-l.total) > 1e-12 || math.Abs(l.total-0.18) > 1e-12 {
		t.Errorf("buckets sum to %v, total %v, want both 0.18", sum, l.total)
	}
	if got, want := l.coveredFrac(), 1-0.01/0.18; math.Abs(got-want) > 1e-12 {
		t.Errorf("covered share %v, want %v", got, want)
	}
	m := l.metrics()
	for _, b := range ledgerBuckets {
		if _, ok := m[selfMetric(b)]; !ok {
			t.Errorf("ledger metrics lack %s", selfMetric(b))
		}
	}
}

func TestLayerRulesBySimFile(t *testing.T) {
	cases := map[string]string{
		"engine.go": "sim.engine",
		"medium.go": "sim.medium",
		"core.go":   "sim.kernel",
		"node.go":   "sim.kernel",
		"shard.go":  "sim.lanes",
		"sim.go":    "sim.handlers",
	}
	for file, want := range cases {
		got := layerOf([]frame{{fn: "repro/internal/sim.f", file: "repro/internal/sim/" + file}})
		if got != want {
			t.Errorf("%s: layer %s, want %s", file, got, want)
		}
	}
	if got := layerOf([]frame{{fn: "sort.Slice", file: "sort/slice.go"}}); got != "other" {
		t.Errorf("unmatched stack went to %s, want other", got)
	}
	if got := layerOf([]frame{{fn: "runtime.mallocgc", file: "runtime/malloc.go"},
		{fn: "repro/internal/battery.(*Counter).Push", file: "repro/internal/battery/rainflow.go"}}); got != "runtime" {
		t.Errorf("allocation went to %s, want runtime", got)
	}
}
