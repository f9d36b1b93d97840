package battery

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/simtime"
)

// bitsEqual compares float64s by representation, the contract the
// snapshot layer promises (no "close enough" tolerance).
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameBreakdown(t *testing.T, label string, want, got Breakdown) {
	t.Helper()
	if !bitsEqual(want.Calendar, got.Calendar) || !bitsEqual(want.Cycle, got.Cycle) ||
		!bitsEqual(want.Linear, got.Linear) || !bitsEqual(want.Total, got.Total) ||
		!bitsEqual(want.MeanSoC, got.MeanSoC) || !bitsEqual(want.Cycles, got.Cycles) {
		t.Fatalf("%s: breakdown diverged after restore:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestTrackerSnapshotRoundTrip is the snapshot exactness proof: cut a
// random SoC stream at an arbitrary point, snapshot, serialize through
// JSON (the daemon's persistence format), restore, then feed both the
// original and the restored tracker the identical continuation. Every
// subsequent Damage query must return bit-identical breakdowns.
func TestTrackerSnapshotRoundTrip(t *testing.T) {
	model := DefaultModel()
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(7, uint64(trial)))
		n := 2 + rng.IntN(400)
		cut := rng.IntN(n)

		orig := NewTracker(model, 25)
		stream := make([]float64, n)
		for i := range stream {
			stream[i] = rng.Float64()
			if rng.IntN(8) == 0 && i > 0 {
				stream[i] = stream[i-1] // plateaus exercise the no-op path
			}
		}
		for _, v := range stream[:cut] {
			orig.Push(v)
		}

		snap := orig.Snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var decoded TrackerSnapshot
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		restored := RestoreTracker(model, 25, decoded)

		if restored.Samples() != orig.Samples() {
			t.Fatalf("trial %d: restored samples %d, want %d", trial, restored.Samples(), orig.Samples())
		}
		age := simtime.Duration(cut+1) * simtime.Hour
		requireSameBreakdown(t, "at cut", orig.Damage(age), restored.Damage(age))

		for i, v := range stream[cut:] {
			orig.Push(v)
			restored.Push(v)
			if i%17 == 0 {
				age := simtime.Duration(cut+i+2) * simtime.Hour
				requireSameBreakdown(t, "mid-continuation", orig.Damage(age), restored.Damage(age))
			}
		}
		final := simtime.Duration(n+1) * simtime.Day
		requireSameBreakdown(t, "final", orig.Damage(final), restored.Damage(final))
		if orig.DegradationCeiling(final) != restored.DegradationCeiling(final) {
			t.Fatalf("trial %d: degradation ceiling diverged", trial)
		}
	}
}

// TestTrackerSnapshotEmpty: a tracker with zero samples snapshots and
// restores without manufacturing phantom state.
func TestTrackerSnapshotEmpty(t *testing.T) {
	model := DefaultModel()
	orig := NewTracker(model, 25)
	restored := RestoreTracker(model, 25, orig.Snapshot())
	if restored.Samples() != 0 {
		t.Fatalf("restored empty tracker has %d samples", restored.Samples())
	}
	age := simtime.Duration(simtime.Day)
	requireSameBreakdown(t, "empty", orig.Damage(age), restored.Damage(age))

	// Both sides must agree after the first pushes too.
	for _, v := range []float64{0.9, 0.3, 0.8, 0.8, 0.2} {
		orig.Push(v)
		restored.Push(v)
	}
	requireSameBreakdown(t, "after pushes", orig.Damage(age), restored.Damage(age))
}

// TestCounterRestoreKeepsOnCycle: restoring a counter must not detach
// the retirement callback — closed cycles after the restore still reach
// the tracker's aggregates.
func TestCounterRestoreKeepsOnCycle(t *testing.T) {
	var got []Cycle
	c := &Counter{OnCycle: func(cy Cycle) { got = append(got, cy) }}
	for _, v := range []float64{0.9, 0.1, 0.8} {
		c.Push(v)
	}
	c.RestoreSnapshot(c.Snapshot())
	// The swing to 0.0 spans the 0.1-0.8 range; the reversal to 0.6
	// confirms 0.0 as a turning point and retires that cycle.
	c.Push(0.0)
	c.Push(0.6)
	if len(got) == 0 {
		t.Fatal("no cycle retired after restore; OnCycle lost")
	}
}

// TestCounterSnapshotIsolated: mutating the counter after Snapshot must
// not leak into the captured stack (the daemon serializes asynchronously
// with respect to later ingests).
func TestCounterSnapshotIsolated(t *testing.T) {
	var c Counter
	for _, v := range []float64{0.9, 0.1, 0.8, 0.2, 0.7} {
		c.Push(v)
	}
	snap := c.Snapshot()
	stackCopy := append([]float64(nil), snap.Stack...)
	for i := 0; i < 50; i++ {
		c.Push(float64(i%2) * 0.5)
	}
	for i := range snap.Stack {
		if snap.Stack[i] != stackCopy[i] {
			t.Fatal("snapshot stack mutated by later pushes")
		}
	}
}

// TestTrackerSnapshotAfterSpanRuns extends the round-trip proof to
// span-integrated histories: the SoC trace is produced by the collapsed
// DischargeRun primitive (the kernel's idle-night path), the
// tracker is snapshotted mid-run, serialized, restored, and both sides
// then continue through more spans. Every Damage query must stay
// bit-identical — the counter state ExtendRun leaves behind (run length,
// pending extremum, direction, stack) must survive persistence exactly.
func TestTrackerSnapshotAfterSpanRuns(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(0x5ba7, uint64(trial)))
		build := func() *Battery {
			b, err := New(DefaultModel(), 300, 0.4, 25)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return b
		}
		orig := build()
		now := simtime.Time(simtime.Hour)

		// spans drives one battery through alternating phases: one real
		// Charge (a turning point) and a falling span via DischargeRun.
		spans := func(b *Battery, phases int) {
			at := now
			for p := 0; p < phases; p++ {
				if p%2 == 0 {
					b.Charge(at, 0.5)
					at += simtime.Time(simtime.Minute)
				} else {
					k := 5 + rng.IntN(200)
					b.DischargeRun(at, 0.03, k)
					at += simtime.Time(int64(k) * int64(simtime.Minute))
				}
			}
		}

		phases := 2 + rng.IntN(6)
		spans(orig, phases)

		snap := orig.tracker.Snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var decoded TrackerSnapshot
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		restored := RestoreTracker(DefaultModel(), 25, decoded)
		if restored.Samples() != orig.tracker.Samples() {
			t.Fatalf("trial %d: samples %d != %d", trial, restored.Samples(), orig.tracker.Samples())
		}
		age := simtime.Duration(now) + 30*simtime.Day
		requireSameBreakdown(t, "after span runs", orig.tracker.Damage(age), restored.Damage(age))

		// Continue both sides through the identical raw SoC stream (the
		// restored tracker has no battery attached, so feed pushes).
		for i := 0; i < 200; i++ {
			v := rng.Float64()
			orig.tracker.Push(v)
			restored.Push(v)
			if i%31 == 0 {
				requireSameBreakdown(t, "span continuation",
					orig.tracker.Damage(age+simtime.Duration(i)*simtime.Hour),
					restored.Damage(age+simtime.Duration(i)*simtime.Hour))
			}
		}
		requireSameBreakdown(t, "span final", orig.tracker.Damage(age+simtime.Day), restored.Damage(age+simtime.Day))
	}
}
