package energy

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/simtime"
)

// oracleEnergy is the pre-cache interval integral: walk the span minute
// by minute and accumulate peakW · trace · localFactor · seconds — the
// exact expression and evaluation order the original Energy loop used.
func oracleEnergy(s *nodeSource, from, to simtime.Time) float64 {
	if to <= from {
		return 0
	}
	if from < 0 {
		from = 0
		if to <= from {
			return 0
		}
	}
	const minuteT = simtime.Time(simtime.Minute)
	var total float64
	cursor := from
	minute := int64(from / minuteT)
	for cursor < to {
		next := simtime.Time(minute+1) * minuteT
		if next > to {
			next = to
		}
		p := s.peakW * s.trace.At(minute) * s.localFactor(minute)
		total += p * next.Sub(cursor).Seconds()
		cursor = next
		minute++
	}
	return total
}

// TestEnergyPrefixMatchesMinuteOracle drives randomized interval queries
// against the per-minute oracle. Spans shorter than prefixSpanMinutes
// must be bit-identical (they take the sequential path, which reproduces
// the oracle fold term for term); longer spans may use the O(1) prefix
// difference and are allowed last-ulp drift only.
func TestEnergyPrefixMatchesMinuteOracle(t *testing.T) {
	yt := newTestTrace(t, 77)
	for _, variation := range []float64{0, 0.25} {
		// A fresh source per variation; queries jump around arbitrarily,
		// including backwards and across day and year boundaries, so the
		// rolling day cache refills in every direction.
		src := yt.NodeSource(3, 0.09, variation).(*nodeSource)
		rng := rand.New(rand.NewPCG(42, uint64(math.Float64bits(variation))))
		const msPerMinute = int64(simtime.Minute) / int64(simtime.Millisecond)
		horizonMs := int64(3*365*minutesPerDay) * msPerMinute
		for i := 0; i < 500; i++ {
			startMs := rng.Int64N(horizonMs)
			var spanMs int64
			if i%2 == 0 {
				spanMs = 1 + rng.Int64N(int64(prefixSpanMinutes)*msPerMinute-1)
			} else {
				spanMs = 1 + rng.Int64N(3*minutesPerDay*msPerMinute)
			}
			from := simtime.Time(startMs * int64(simtime.Millisecond))
			to := from + simtime.Time(spanMs*int64(simtime.Millisecond))
			got := src.Energy(from, to)
			want := oracleEnergy(src, from, to)
			if spanMs < int64(prefixSpanMinutes)*msPerMinute {
				if got != want {
					t.Fatalf("variation %v short span [%d, %d): Energy = %v, oracle = %v (must be bit-identical)",
						variation, from, to, got, want)
				}
				continue
			}
			if diff := math.Abs(got - want); diff > 1e-6+1e-9*math.Abs(want) {
				t.Fatalf("variation %v long span [%d, %d): Energy = %v, oracle = %v (diff %g)",
					variation, from, to, got, want, diff)
			}
		}
	}
}

// TestEnergyPrefixLazy: the running-sum table is only materialized by a
// query that actually spans prefixSpanMinutes whole minutes — priming
// and per-minute integration never pay for it.
func TestEnergyPrefixLazy(t *testing.T) {
	yt := newTestTrace(t, 5)
	src := yt.NodeSource(1, 0.09, 0.25).(*nodeSource)
	const minuteT = simtime.Time(simtime.Minute)

	for d := int64(0); d < 2; d++ {
		src.DayPowers(d)
	}
	src.Energy(0, simtime.Time(prefixSpanMinutes-1)*minuteT)
	if src.prefix != nil || src.prefixDay != -1 {
		t.Fatal("short queries must not materialize the prefix table")
	}

	long := src.Energy(0, simtime.Time(2*prefixSpanMinutes)*minuteT)
	if src.prefix == nil || src.prefixDay != 0 {
		t.Fatal("a long query should materialize the prefix table for its day")
	}
	if want := oracleEnergy(src, 0, simtime.Time(2*prefixSpanMinutes)*minuteT); math.Abs(long-want) > 1e-9 {
		t.Fatalf("long query = %v, oracle = %v", long, want)
	}
}

// TestPrimeFastPathsMatchObserveReplay: both Prime branches — the
// MinuteSource day walk and the generic Observe replay — must leave
// bit-identical profiles, since each training observation is exactly
// one full minute slot.
func TestPrimeFastPathsMatchObserveReplay(t *testing.T) {
	yt := newTestTrace(t, 9)
	const days = 3

	fast := NewDiurnalEWMA(0.3)
	fast.Prime(yt.NodeSource(5, 0.09, 0.25), days)

	// Hide the MinuteSource method so Prime takes the Observe replay.
	slow := NewDiurnalEWMA(0.3)
	slow.Prime(struct{ Source }{yt.NodeSource(5, 0.09, 0.25)}, days)

	for m := 0; m < minutesPerDay; m++ {
		if fast.profile[m] != slow.profile[m] || fast.seen[m] != slow.seen[m] {
			t.Fatalf("slot %d: MinuteSource Prime %v (seen %v), Observe replay %v (seen %v)",
				m, fast.profile[m], fast.seen[m], slow.profile[m], slow.seen[m])
		}
	}
}

// TestForecastWindowsMinuteFastPath: the 1-minute fast path (aligned and
// unaligned starts) must reproduce the general minute-walk loop bit for
// bit, including day wrap-around of the slot cursor.
func TestForecastWindowsMinuteFastPath(t *testing.T) {
	f := NewDiurnalEWMA(0.3)
	rng := rand.New(rand.NewPCG(11, 3))
	for m := 0; m < minutesPerDay; m++ {
		f.ObserveFullSlot(m, rng.Float64()*6)
	}

	// general replays ForecastWindows' fallback loop for one window.
	general := func(from, to simtime.Time) float64 {
		const minuteT = simtime.Time(simtime.Minute)
		var joules float64
		cursor := from
		minute := int64(from / minuteT)
		for cursor < to {
			next := simtime.Time(minute+1) * minuteT
			var secs float64
			if next <= to && cursor == simtime.Time(minute)*minuteT {
				secs = 60.0
			} else {
				if next > to {
					next = to
				}
				secs = next.Sub(cursor).Seconds()
			}
			joules += f.profile[int(minute%minutesPerDay)] * secs
			cursor = next
			minute++
		}
		return joules
	}

	starts := []simtime.Time{
		0,
		simtime.Time(simtime.Minute) * 17, // aligned
		simtime.Time(simtime.Minute)*42 + simtime.Time(7500)*simtime.Time(simtime.Millisecond), // unaligned
		simtime.Time(simtime.Minute) * (minutesPerDay - 3),                                     // wraps midnight
		simtime.Time(simtime.Minute)*(minutesPerDay-3) + simtime.Time(simtime.Second),
	}
	for _, start := range starts {
		got := f.ForecastWindows(start, simtime.Minute, 8)
		for i, g := range got {
			from := start.Add(simtime.Duration(i) * simtime.Minute)
			if want := general(from, from.Add(simtime.Minute)); g != want {
				t.Fatalf("start %d window %d: fast path %v, general loop %v", start, i, g, want)
			}
		}
	}
}
