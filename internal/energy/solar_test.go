package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func newTestTrace(t *testing.T, seed uint64) *YearTrace {
	t.Helper()
	yt, err := NewYearTrace(DefaultSolarConfig(seed))
	if err != nil {
		t.Fatalf("NewYearTrace: %v", err)
	}
	return yt
}

func TestSolarConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SolarConfig)
	}{
		{"daylight amplitude too big", func(c *SolarConfig) { c.DaylightAmplitudeHours = 12 }},
		{"negative seasonal", func(c *SolarConfig) { c.SeasonalAmplitude = -0.1 }},
		{"cloud attenuation > 1", func(c *SolarConfig) { c.CloudAttenuation = 1.1 }},
		{"persistence > 1", func(c *SolarConfig) { c.WeatherPersistence = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultSolarConfig(1)
			tt.mutate(&cfg)
			if _, err := NewYearTrace(cfg); err == nil {
				t.Error("NewYearTrace should reject invalid config")
			}
		})
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := newTestTrace(t, 42)
	b := newTestTrace(t, 42)
	for _, minute := range []int64{0, 720, 100_000, 525_599, 600_000} {
		if a.At(minute) != b.At(minute) {
			t.Fatalf("trace not deterministic at minute %d", minute)
		}
	}
	c := newTestTrace(t, 43)
	var differs bool
	for minute := int64(0); minute < minutesPerYear; minute += 997 {
		if a.At(minute) != c.At(minute) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("different seeds should produce different traces")
	}
}

func TestTraceDayNightStructure(t *testing.T) {
	yt := newTestTrace(t, 7)
	var nightMax, noonSum float64
	days := 0
	for day := 0; day < 365; day++ {
		base := int64(day * 24 * 60)
		nightMax = math.Max(nightMax, yt.At(base+120)) // 02:00
		noonSum += yt.At(base + 12*60)                 // 12:00
		days++
	}
	if nightMax != 0 {
		t.Errorf("power at 02:00 should always be 0, max was %v", nightMax)
	}
	if avg := noonSum / float64(days); avg < 0.2 {
		t.Errorf("average noon power %v too low; trace looks broken", avg)
	}
}

func TestTraceBounds(t *testing.T) {
	yt := newTestTrace(t, 9)
	for minute := int64(0); minute < minutesPerYear; minute++ {
		v := yt.At(minute)
		if v < 0 || v > 1 {
			t.Fatalf("normalized power %v outside [0,1] at minute %d", v, minute)
		}
	}
	if yt.At(-5) != 0 {
		t.Error("negative time should yield zero power")
	}
}

func TestTraceYearWrap(t *testing.T) {
	yt := newTestTrace(t, 11)
	// Year 1 must correlate with year 0 (same base day) but may be scaled.
	m := int64(180*24*60 + 12*60) // noon midsummer
	y0 := yt.At(m)
	y1 := yt.At(m + minutesPerYear)
	if y0 == 0 {
		t.Skip("midsummer noon overcast in this seed")
	}
	ratio := y1 / y0
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("year-to-year factor %v outside +-8%% envelope", ratio)
	}
}

func TestNodeSourcePowerAndEnergyConsistency(t *testing.T) {
	yt := newTestTrace(t, 13)
	src := yt.NodeSource(3, 2.0, 0.2).(*nodeSource)

	// Energy over one exact minute equals power * 60 at that minute.
	minute := int64(200*24*60 + 12*60)
	from := simtime.Time(minute) * simtime.Time(simtime.Minute)
	e := src.Energy(from, from.Add(simtime.Minute))
	p := oraclePower(src, minute)
	if !closeTo(e, p*60, 1e-9) {
		t.Errorf("Energy over a minute = %v, want power*60 = %v", e, p*60)
	}
}

func TestNodeSourceEnergyAdditive(t *testing.T) {
	yt := newTestTrace(t, 17)
	src := yt.NodeSource(5, 1.5, 0.3)
	f := func(rawStart uint32, rawA, rawB uint16) bool {
		start := simtime.Time(int64(rawStart) * 6)     // up to ~298 days
		mid := start.Add(simtime.Duration(rawA) * 110) // up to ~2 h
		end := mid.Add(simtime.Duration(rawB) * 110)
		whole := src.Energy(start, end)
		split := src.Energy(start, mid) + src.Energy(mid, end)
		return closeTo(whole, split, 1e-6*(1+whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodeSourceEdgeCases(t *testing.T) {
	yt := newTestTrace(t, 19)
	src := yt.NodeSource(1, 1, 0)
	if got := src.Energy(100, 100); got != 0 {
		t.Errorf("zero-length interval energy = %v", got)
	}
	if got := src.Energy(200, 100); got != 0 {
		t.Errorf("inverted interval energy = %v", got)
	}
	if got := yt.At(-1); got != 0 {
		t.Errorf("pre-deployment power = %v", got)
	}
	// Negative start is clamped.
	if got := src.Energy(-simtime.Time(simtime.Hour), 0); got != 0 {
		t.Errorf("pre-deployment energy = %v", got)
	}
}

func TestNodeSourcesDiffer(t *testing.T) {
	yt := newTestTrace(t, 23)
	a := yt.NodeSource(1, 1, 0.4).(*nodeSource)
	b := yt.NodeSource(2, 1, 0.4).(*nodeSource)
	var differs bool
	for day := int64(0); day < 30 && !differs; day++ {
		at := day*24*60 + 12*60
		pa, pb := oraclePower(a, at), oraclePower(b, at)
		if math.Abs(pa-pb) > 1e-12 && pa > 0 {
			differs = true
		}
	}
	if !differs {
		t.Error("nodes with variation should see different local power")
	}
	// Zero variation: identical to the base trace scaling.
	c := yt.NodeSource(1, 2, 0).(*nodeSource)
	d := yt.NodeSource(99, 2, 0).(*nodeSource)
	at := int64(100*24*60 + 12*60)
	if oraclePower(c, at) != oraclePower(d, at) {
		t.Error("zero-variation sources must match")
	}
}

func TestAnnualEnergyPlausible(t *testing.T) {
	yt := newTestTrace(t, 29)
	src := yt.NodeSource(0, 1, 0) // 1 W peak panel
	total := src.Energy(0, simtime.Time(simtime.Year))
	// A 1 W-peak panel at mid latitude should harvest on the order of
	// 2-5 MJ per year (2.5-4 equivalent full-sun hours per day would be
	// 3.3-5.3 MJ before clouds).
	if total < 1e6 || total > 8e6 {
		t.Errorf("annual harvest %v J implausible for a 1 W panel", total)
	}
}

func TestPeakPowerFor(t *testing.T) {
	got := PeakPowerFor(0.03, simtime.Minute, 2)
	if !closeTo(got, 2*0.03/60, 1e-15) {
		t.Errorf("PeakPowerFor = %v", got)
	}
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
