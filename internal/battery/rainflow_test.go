package battery

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompressTurningPoints(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want []float64
	}{
		{name: "empty", give: nil, want: nil},
		{name: "single", give: []float64{1}, want: []float64{1}},
		{name: "flat", give: []float64{1, 1, 1}, want: []float64{1}},
		{name: "monotone", give: []float64{0, 0.2, 0.5, 1}, want: []float64{0, 1}},
		{name: "zigzag kept", give: []float64{0, 1, 0.5}, want: []float64{0, 1, 0.5}},
		{name: "interior removed", give: []float64{0, 0.5, 1, 0.7, 0.2, 0.9}, want: []float64{0, 1, 0.2, 0.9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := compressTurningPoints(tt.give)
			if len(got) != len(tt.want) {
				t.Fatalf("compress(%v) = %v, want %v", tt.give, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("compress(%v) = %v, want %v", tt.give, got, tt.want)
				}
			}
		})
	}
}

func TestRainflowEmpty(t *testing.T) {
	for _, give := range [][]float64{nil, {0.5}, {0.5, 0.5, 0.5}} {
		if got := Rainflow(give); len(got) != 0 {
			t.Errorf("Rainflow(%v) = %v, want empty", give, got)
		}
	}
}

func TestRainflowSingleExcursion(t *testing.T) {
	got := Rainflow([]float64{0, 1})
	if len(got) != 1 {
		t.Fatalf("got %v, want one half cycle", got)
	}
	want := Cycle{Range: 1, Mean: 0.5, Count: 0.5}
	if got[0] != want {
		t.Errorf("got %+v, want %+v", got[0], want)
	}
}

func TestRainflowNestedCycle(t *testing.T) {
	// A small excursion (0.4 -> 0.6) nested inside a big one (0 -> 1 -> 0)
	// must be extracted as one full cycle; the outer excursion remains as
	// two half cycles.
	got := Rainflow([]float64{0, 1, 0.4, 0.6, 0})
	var fulls, halves []Cycle
	for _, c := range got {
		switch c.Count {
		case 1:
			fulls = append(fulls, c)
		case 0.5:
			halves = append(halves, c)
		default:
			t.Fatalf("unexpected count %v", c.Count)
		}
	}
	if len(fulls) != 1 || !almostEqual(fulls[0].Range, 0.2, 1e-12) || !almostEqual(fulls[0].Mean, 0.5, 1e-12) {
		t.Errorf("full cycles = %+v, want one of range 0.2 mean 0.5", fulls)
	}
	if len(halves) != 2 {
		t.Fatalf("half cycles = %+v, want two", halves)
	}
	for _, h := range halves {
		if !almostEqual(h.Range, 1, 1e-12) {
			t.Errorf("outer half cycle range = %v, want 1", h.Range)
		}
	}
}

func TestRainflowRepeatedFullSwings(t *testing.T) {
	// Two complete round trips 0->1->0->1->0: total eta must be 2.
	got := Rainflow([]float64{0, 1, 0, 1, 0})
	var eta float64
	for _, c := range got {
		if !almostEqual(c.Range, 1, 1e-12) {
			t.Errorf("cycle range = %v, want 1", c.Range)
		}
		eta += c.Count
	}
	if !almostEqual(eta, 2, 1e-12) {
		t.Errorf("total eta = %v, want 2", eta)
	}
}

// TestRainflowRangeConservation: the eta-weighted sum of cycle ranges
// equals half the total variation of the turning-point sequence. This is
// the fundamental conservation property of rainflow counting.
func TestRainflowRangeConservation(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := int(rawN%60) + 2
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = rng.Float64()
		}
		tp := compressTurningPoints(pts)
		var variation float64
		for i := 0; i+1 < len(tp); i++ {
			variation += math.Abs(tp[i+1] - tp[i])
		}
		var weighted float64
		for _, c := range Rainflow(pts) {
			weighted += 2 * c.Count * c.Range // full cycle covers its range twice
		}
		return almostEqual(weighted, variation, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCounterMatchesBatch: at every prefix of a random stream, the cycles
// permanently emitted by the incremental Counter plus its PendingCycles
// must equal batch Rainflow of that prefix.
func TestCounterMatchesBatch(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		n := int(rawN%50) + 1
		pts := make([]float64, n)
		for i := range pts {
			// Quantized values provoke plateau and equal-range edge cases.
			pts[i] = float64(rng.IntN(12)) / 11
		}
		var emitted []Cycle
		c := &Counter{OnCycle: func(cy Cycle) { emitted = append(emitted, cy) }}
		for i, p := range pts {
			c.Push(p)
			got := append(append([]Cycle(nil), emitted...), c.PendingCycles()...)
			want := Rainflow(pts[:i+1])
			if !sameCycles(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzCounterMatchesRainflow: at every prefix of a fuzzed SoC stream,
// the incremental Counter's emitted cycles plus its PendingCycles must
// equal batch Rainflow of the prefix. Push is the counter's only write
// path, so this pins all of it. The first input byte sets the number of
// quantization levels L; every further byte b is one sample
// (b mod (L+1))/L in [0, 1], so small L provokes plateaus and
// equal-range ties.
func FuzzCounterMatchesRainflow(f *testing.F) {
	// Plateaus: flat streams, a flat top, a flat valley, ties between
	// adjacent ranges.
	f.Add([]byte{4, 2, 2, 2, 2})
	f.Add([]byte{4, 0, 4, 4, 4, 0})
	f.Add([]byte{4, 4, 0, 0, 0, 4, 4, 0})
	f.Add([]byte{4, 0, 2, 0, 2, 0, 2, 2, 4})
	// The quantized streams of TestCounterMatchesBatch: 12 levels, k/11.
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		data := []byte{11}
		for n := 1 + rng.IntN(50); n > 0; n-- {
			data = append(data, byte(rng.IntN(12)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 257 {
			return // each prefix is re-counted in batch: keep n small
		}
		levels := max(1, int(data[0]))
		pts := make([]float64, len(data)-1)
		for i, b := range data[1:] {
			pts[i] = float64(int(b)%(levels+1)) / float64(levels)
		}
		var emitted []Cycle
		c := &Counter{OnCycle: func(cy Cycle) { emitted = append(emitted, cy) }}
		for i, p := range pts {
			c.Push(p)
			got := append(append([]Cycle(nil), emitted...), c.PendingCycles()...)
			if want := Rainflow(pts[:i+1]); !sameCycles(got, want) {
				t.Fatalf("prefix %v: counter %v, batch %v", pts[:i+1], got, want)
			}
		}
	})
}

// TestCounterInvariantUnderInterleavedAppendPending: AppendPending is a
// read-only query that reuses internal scratch, so calling it between
// pushes — zero, one, or many times, with fresh or recycled dst slices —
// must never perturb the counter. The invariant
// Rainflow(history) == emitted + PendingCycles() has to hold at every
// prefix regardless of how queries interleave with the stream.
func TestCounterInvariantUnderInterleavedAppendPending(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 29))
		n := int(rawN%60) + 1
		pts := make([]float64, n)
		for i := range pts {
			// Quantized values provoke plateau and equal-range edge cases.
			pts[i] = float64(rng.IntN(9)) / 8
		}
		var emitted []Cycle
		c := &Counter{OnCycle: func(cy Cycle) { emitted = append(emitted, cy) }}
		var recycled []Cycle
		for i, p := range pts {
			// Adversarial query burst before the push: 0-3 AppendPending
			// calls, alternating fresh and recycled (non-empty) dst.
			for q := rng.IntN(4); q > 0; q-- {
				if q%2 == 0 {
					recycled = c.AppendPending(recycled[:0])
				} else {
					c.AppendPending(nil)
				}
			}
			c.Push(p)
			got := append(append([]Cycle(nil), emitted...), c.PendingCycles()...)
			if !sameCycles(got, Rainflow(pts[:i+1])) {
				return false
			}
		}
		// Queries after the stream ends must agree with each other too.
		if !sameCycles(c.PendingCycles(), c.AppendPending(nil)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCounterAppendPendingReusesDst: the allocation-free contract —
// pending cycles are appended after dst's existing elements, which stay
// untouched.
func TestCounterAppendPendingReusesDst(t *testing.T) {
	var c Counter
	for _, v := range []float64{0, 1, 0.4, 0.6} {
		c.Push(v)
	}
	sentinel := Cycle{Range: -1, Mean: -1, Count: -1}
	got := c.AppendPending([]Cycle{sentinel})
	if len(got) < 2 || got[0] != sentinel {
		t.Fatalf("AppendPending clobbered dst prefix: %+v", got)
	}
	if !sameCycles(got[1:], c.PendingCycles()) {
		t.Errorf("appended tail %v != PendingCycles %v", got[1:], c.PendingCycles())
	}
}

func TestCounterPendingCyclesIdempotent(t *testing.T) {
	var c Counter
	for _, v := range []float64{0, 1, 0.4, 0.6, 0.1, 0.9} {
		c.Push(v)
	}
	first := c.PendingCycles()
	second := c.PendingCycles()
	if !sameCycles(first, second) {
		t.Errorf("PendingCycles mutated state: %v then %v", first, second)
	}
}

func TestCounterSamples(t *testing.T) {
	var c Counter
	if c.Samples() != 0 {
		t.Error("fresh counter should have 0 samples")
	}
	c.Push(0.5)
	c.Push(0.5)
	c.Push(0.7)
	if got := c.Samples(); got != 3 {
		t.Errorf("Samples = %d, want 3", got)
	}
}

func TestCounterNoCallback(t *testing.T) {
	// A Counter without OnCycle must not panic when cycles close.
	var c Counter
	for _, v := range []float64{0, 1, 0, 1, 0, 1} {
		c.Push(v)
	}
	if got := c.PendingCycles(); len(got) == 0 {
		t.Error("expected pending cycles")
	}
}

func TestNewCycleOrientation(t *testing.T) {
	up := newCycle(0.2, 0.8, 1)
	down := newCycle(0.8, 0.2, 1)
	if up != down {
		t.Errorf("cycle must be orientation-independent: %+v vs %+v", up, down)
	}
	if !almostEqual(up.Range, 0.6, 1e-12) || !almostEqual(up.Mean, 0.5, 1e-12) {
		t.Errorf("cycle = %+v", up)
	}
}

// sameCycles compares two cycle multisets up to ordering and tiny
// floating-point noise.
func sameCycles(a, b []Cycle) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(c Cycle) [3]float64 { return [3]float64{c.Range, c.Mean, c.Count} }
	as := make([][3]float64, len(a))
	bs := make([][3]float64, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	less := func(s [][3]float64) func(i, j int) bool {
		return func(i, j int) bool {
			for k := 0; k < 3; k++ {
				if s[i][k] != s[j][k] {
					return s[i][k] < s[j][k]
				}
			}
			return false
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		for k := 0; k < 3; k++ {
			if math.Abs(as[i][k]-bs[i][k]) > 1e-9 {
				return false
			}
		}
	}
	return true
}
