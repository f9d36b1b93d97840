package energy

import (
	"math"
	"testing"

	"repro/internal/simtime"
)

// constantSource emits a fixed power at all times.
type constantSource struct{ watts float64 }

func (s constantSource) Energy(from, to simtime.Time) float64 {
	if to <= from {
		return 0
	}
	return s.watts * to.Sub(from).Seconds()
}

func TestPerfectForecaster(t *testing.T) {
	yt := newTestTrace(t, 31)
	src := yt.NodeSource(0, 1, 0.2)
	f := &Perfect{Source: src}

	start := simtime.Time(50*24*60+10*60) * simtime.Time(simtime.Minute)
	got := f.ForecastWindows(start, simtime.Minute, 10)
	if len(got) != 10 {
		t.Fatalf("forecast length %d, want 10", len(got))
	}
	for i, g := range got {
		from := start.Add(simtime.Duration(i) * simtime.Minute)
		want := src.Energy(from, from.Add(simtime.Minute))
		if g != want {
			t.Errorf("window %d forecast %v, want %v", i, g, want)
		}
	}
}

func TestNoisyForecaster(t *testing.T) {
	src := constantSource{watts: 1}
	f := NewNoisy(src, 0.2, 77)

	start := simtime.Time(0)
	n := 2000
	got := f.ForecastWindows(start, simtime.Minute, n)
	var sum float64
	for _, g := range got {
		if g < 0 {
			t.Fatal("noisy forecast must be clamped at zero")
		}
		sum += g
	}
	mean := sum / float64(n)
	if math.Abs(mean-60)/60 > 0.05 {
		t.Errorf("noisy forecast mean %v, want ~60 J (unbiased)", mean)
	}

	// Determinism per seed.
	again := NewNoisy(src, 0.2, 77).ForecastWindows(start, simtime.Minute, 5)
	first := NewNoisy(src, 0.2, 77).ForecastWindows(start, simtime.Minute, 5)
	for i := range again {
		if again[i] != first[i] {
			t.Fatal("noisy forecaster not deterministic per seed")
		}
	}
}

func TestDiurnalEWMAColdStart(t *testing.T) {
	f := NewDiurnalEWMA(0.3)
	got := f.ForecastWindows(0, simtime.Minute, 5)
	for i, g := range got {
		if g != 0 {
			t.Errorf("cold-start forecast[%d] = %v, want 0", i, g)
		}
	}
}

func TestDiurnalEWMALearnsConstant(t *testing.T) {
	f := NewDiurnalEWMA(0.3)
	src := constantSource{watts: 0.5}
	f.Prime(src, 3)

	got := f.ForecastWindows(simtime.Time(3*simtime.Day), simtime.Minute, 3)
	for i, g := range got {
		if !closeTo(g, 0.5*60, 1e-9) {
			t.Errorf("forecast[%d] = %v, want 30 J", i, g)
		}
	}
}

func TestDiurnalEWMATracksDiurnalShape(t *testing.T) {
	yt := newTestTrace(t, 37)
	src := yt.NodeSource(0, 1, 0)
	f := NewDiurnalEWMA(0.3)
	f.Prime(src, 20)

	day := simtime.Time(20 * simtime.Day)
	// The returned slice is the forecaster's reusable buffer, so each
	// forecast is checked before requesting the next one.
	night := f.ForecastWindows(day.Add(2*simtime.Hour), simtime.Minute, 5)
	for i, g := range night {
		if g != 0 {
			t.Errorf("night forecast[%d] = %v, want 0", i, g)
		}
	}
	noon := f.ForecastWindows(day.Add(12*simtime.Hour), simtime.Minute, 5)
	var noonSum float64
	for _, g := range noon {
		noonSum += g
	}
	if noonSum <= 0 {
		t.Error("noon forecast should be positive after priming")
	}
}

func TestDiurnalEWMAObserveWeighting(t *testing.T) {
	f := NewDiurnalEWMA(0.25)
	slotStart := simtime.Time(10 * simtime.Minute)
	// First observation initializes the slot outright.
	f.Observe(slotStart, slotStart.Add(simtime.Minute), 60) // 1 W
	// Second observation one day later blends with weight alpha.
	dayLater := slotStart.Add(simtime.Day)
	f.Observe(dayLater, dayLater.Add(simtime.Minute), 120) // 2 W
	got := f.ForecastWindows(slotStart.Add(2*simtime.Day), simtime.Minute, 1)[0]
	wantPower := 0.25*2 + 0.75*1
	if !closeTo(got, wantPower*60, 1e-9) {
		t.Errorf("blended forecast %v J, want %v J", got, wantPower*60)
	}
}

// TestDiurnalEWMAObserveBoundaryStraddle is the regression test for the
// slot-weighting bug: a short observation straddling a minute boundary
// used to fold its average power into both touched slots with full EWMA
// weight, as if it had covered each minute entirely. The update must be
// weighted by each slot's share of the observation instead.
func TestDiurnalEWMAObserveBoundaryStraddle(t *testing.T) {
	f := NewDiurnalEWMA(0.5)
	minute := simtime.Time(simtime.Minute)
	// Train slots 1 and 2 to a steady 1 W with full-minute observations.
	f.Observe(1*minute, 2*minute, 60)
	f.Observe(2*minute, 3*minute, 60)
	// 30 s at 5 W straddling the slot 1 / slot 2 boundary at 120 s:
	// 15 s fall in each slot, so each carries half the observation's
	// weight.
	from := simtime.Time(105 * simtime.Second)
	f.Observe(from, from.Add(30*simtime.Second), 150)
	// Effective alpha per slot is 0.5 * 0.5 = 0.25:
	//   profile = 0.25*5 W + 0.75*1 W = 2 W  ->  120 J per minute window.
	// The old full-weight update gave 0.5*5 + 0.5*1 = 3 W (180 J).
	got := f.ForecastWindows(simtime.Time(simtime.Day).Add(simtime.Minute), simtime.Minute, 2)
	for i, g := range got {
		if !closeTo(g, 120, 1e-9) {
			t.Errorf("slot %d forecast %v J, want 120 J (coverage-weighted update)", i+1, g)
		}
	}
}

// TestDiurnalEWMAObserveSingleSlotFullWeight pins that an observation
// contained in one minute slot still updates with the full alpha, no
// matter how short it is — the coverage weighting must not dilute the
// common case of sub-minute integration chunks.
func TestDiurnalEWMAObserveSingleSlotFullWeight(t *testing.T) {
	f := NewDiurnalEWMA(0.25)
	minute := simtime.Time(simtime.Minute)
	f.Observe(5*minute, 6*minute, 60) // slot 5 = 1 W
	// 2 s entirely inside slot 5 at 4 W: full-weight EWMA update.
	f.Observe(5*minute+simtime.Time(10*simtime.Second), 5*minute+simtime.Time(12*simtime.Second), 8)
	want := (0.25*4 + 0.75*1) * 60
	got := f.ForecastWindows(simtime.Time(simtime.Day).Add(5*simtime.Minute), simtime.Minute, 1)[0]
	if !closeTo(got, want, 1e-9) {
		t.Errorf("single-slot partial observation forecast %v J, want %v J", got, want)
	}
}

func TestDiurnalEWMAObserveIgnoresEmptyInterval(t *testing.T) {
	f := NewDiurnalEWMA(0.3)
	f.Observe(100, 100, 5)
	f.Observe(200, 100, 5)
	if got := f.ForecastWindows(0, simtime.Minute, 1)[0]; got != 0 {
		t.Errorf("forecast after degenerate observations = %v, want 0", got)
	}
}

func TestDiurnalEWMAAlphaClamped(t *testing.T) {
	f := NewDiurnalEWMA(5)
	if f.alpha != 1 {
		t.Errorf("alpha = %v, want clamped to 1", f.alpha)
	}
	g := NewDiurnalEWMA(0)
	if g.alpha <= 0 {
		t.Errorf("alpha = %v, want clamped above 0", g.alpha)
	}
}
