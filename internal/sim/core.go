package sim

import (
	"repro/internal/battery"
	"repro/internal/simtime"
)

// soa is the struct-of-arrays node core (DESIGN.md §5g): the
// integration-hot per-node state lives in contiguous slices indexed by
// dense node index instead of scattered across per-node heap objects,
// so the energy integrator, the final results sweep, and the obs
// sampler walk cache lines. sim.Node stays the API-facing view — mac,
// faults, and experiments see unchanged types — and holds its index
// into the arrays. Under RunConcurrent every node goroutine writes only
// its own index of each slice.
type soa struct {
	// lastIntegrated is the per-node lazy energy-integration cursor.
	lastIntegrated []simtime.Time
	// extraDrawJ is radio energy awaiting the next balance chunk (the
	// Eq. 5 software-defined switch input).
	extraDrawJ []float64
	// chargeSkipUntil is the arm time of the at-capacity charge-span
	// skip: while the integration cursor stays at or below it, every
	// per-minute Charge would be a strict no-op (zero headroom, no
	// capacity clamp — see battery.ChargeNoopUntil) and is elided.
	chargeSkipUntil []simtime.Time
	// fastUntil/fastLimit are the below-capacity full-accept span
	// (battery.FullAcceptLimit): until fastUntil, while stored energy
	// stays at or below fastLimit, a charging minute is proven to accept
	// in full and goes through battery.ChargeProven — no degradation
	// query, no capacity clamp. fastRev guards BOTH spans: each proof
	// holds only while the battery's SoC history stays exactly as the
	// kernel left it, so any out-of-band push (revision mismatch) drops
	// the minute back to the real path, which re-proves before re-arming.
	fastUntil []simtime.Time
	fastLimit []float64
	fastRev   []uint64
	// sleepW60 is 60 s of baseline sleep draw in joules (60.0·sleepW),
	// the constant subtrahend of every whole-minute balance chunk.
	sleepW60 []float64
	// batt is the node's store when it is a plain battery; nil (hybrid
	// or test stub) routes the node through the generic integrate path.
	batt []*battery.Battery
}

// attachCore builds the array core over the node set and wires each
// node's view into it.
func attachCore(nodes []*Node) *soa {
	c := &soa{
		lastIntegrated:  make([]simtime.Time, len(nodes)),
		extraDrawJ:      make([]float64, len(nodes)),
		chargeSkipUntil: make([]simtime.Time, len(nodes)),
		fastUntil:       make([]simtime.Time, len(nodes)),
		fastLimit:       make([]float64, len(nodes)),
		fastRev:         make([]uint64, len(nodes)),
		sleepW60:        make([]float64, len(nodes)),
		batt:            make([]*battery.Battery, len(nodes)),
	}
	for i, n := range nodes {
		n.core, n.idx = c, i
		c.sleepW60[i] = 60.0 * n.sleepW
		if b, ok := n.Batt.(*battery.Battery); ok {
			c.batt[i] = b
		}
	}
	return c
}

// ensureCore returns the node's array core, lazily attaching a
// single-node core for bare nodes built outside Simulation.New (tests).
func (n *Node) ensureCore() (*soa, int) {
	if n.core == nil {
		attachCore([]*Node{n})
	}
	return n.core, n.idx
}

// dayPowers is the fast kernel's per-node cache of DayPowers: the
// integrator wakes once per event, so without the cache the dynamic
// dispatch plus the source's own day check run hundreds of times per
// simulated day to return the same slice. Sound only for fast-kernel
// nodes: their diurnal-EWMA forecaster never queries the source, so the
// kernel's own DayPowers calls are the only thing that refills the
// source's rolling day cache (a Perfect/Noisy forecaster peeking at
// future days would invalidate the cached contents behind our back —
// those nodes run the generic path, which calls the source every time).
func (n *Node) dayPowers(day int64) []float64 {
	if n.powCache == nil || n.powDay != day {
		n.powCache = n.srcMin.DayPowers(day)
		n.powDay = day
	}
	return n.powCache
}

// debugGenericIntegrate forces every node through the generic
// integration path; the SoA oracle test uses it to pin the fused kernel
// bit-for-bit against the reference implementation.
var debugGenericIntegrate bool

// integrate advances the node's energy state from its last integration
// point to now: per-minute harvesting (taught to the forecaster),
// baseline sleep draw, and battery charge/discharge with the protocol's
// theta cap applied by the battery itself.
func (n *Node) integrate(to simtime.Time) {
	c, i := n.ensureCore()
	from := c.lastIntegrated[i]
	if to <= from {
		return
	}
	c.lastIntegrated[i] = to
	if c.batt[i] != nil && n.srcMin != nil && n.fcEWMA != nil && !debugGenericIntegrate {
		n.integrateFast(c, i, from, to)
		return
	}
	n.integrateGeneric(c, i, from, to)
}

// integrateFast is the fused per-minute integration kernel for the
// dominant node shape (per-minute solar source, diurnal-EWMA
// forecaster, plain battery). It performs exactly the generic path's
// arithmetic in the same order — sleepW60 is the same 60.0·sleepW
// product, hoisted — except that it elides battery work proven to be
// reproducible without the per-minute degradation query:
//
//   - net == 0 skips Charge(next, 0), which returns before mutating;
//   - while the at-capacity span armed via battery.ChargeNoopUntil is
//     live, net > 0 skips the rejected Charge entirely;
//   - while the below-capacity full-accept span armed via
//     battery.FullAcceptLimit is live, a charging minute runs
//     battery.ChargeProven — the same stored-energy add and SoC push a
//     full-accepting Charge performs, minus the refresh that only
//     rewrites the pure fade cache.
//
// The span invariant is "no event, no allocation, no degradation
// query": a charging or at-capacity daytime node costs one EWMA fold
// and a few flops per minute. Any Discharge disarms both spans; a full
// accept on the real path re-arms the full-accept span and a partial
// accept re-arms the at-capacity span, each through the end of the next
// day. The revision guard (fastRev) catches any battery push the kernel
// did not make itself — a direct Discharge by fault injection, say —
// and falls back to the real path, which re-proves before re-arming;
// within one integrateFast call the kernel owns the battery, so the
// guard is hoisted into revOK and maintained at the kernel's own ops
// instead of re-queried every minute.
func (n *Node) integrateFast(c *soa, i int, from, to simtime.Time) {
	b := c.batt[i]
	ew := n.fcEWMA
	const minuteT = simtime.Time(simtime.Minute)
	cursor := from
	minute := int64(cursor / minuteT)
	day := minute / minutesPerDay
	dayStart := day * minutesPerDay
	pow := n.dayPowers(day)
	sleep60 := c.sleepW60[i]
	extra := c.extraDrawJ[i]
	c.extraDrawJ[i] = 0
	skipUntil := c.chargeSkipUntil[i]
	fastUntil := c.fastUntil[i]
	fastLimit := c.fastLimit[i]
	armRev := c.fastRev[i]
	// The revision guard read chases battery → tracker → counter, a cold
	// line on the night path where both spans are disarmed (any Discharge
	// zeroes them) — so only pay for it when an armed span could use it.
	revOK := false
	if skipUntil > from || fastUntil > from {
		revOK = b.CounterRev() == armRev
	}
	for cursor < to {
		if minute-dayStart >= minutesPerDay {
			day = minute / minutesPerDay
			dayStart = day * minutesPerDay
			pow = n.dayPowers(day)
		}
		p := pow[minute-dayStart]
		next := simtime.Time(minute+1) * minuteT
		var net float64
		whole := false
		if next <= to && cursor == simtime.Time(minute)*minuteT {
			whole = true
			harvest := p * 60.0
			ew.ObserveFullSlot(int(minute-dayStart), harvest)
			net = harvest - sleep60 - extra
		} else {
			if next > to {
				next = to
			}
			secs := next.Sub(cursor).Seconds()
			harvest := p * secs
			n.fc.Observe(cursor, next, harvest)
			net = harvest - secs*n.sleepW - extra
		}
		extra = 0
		if net > 0 {
			switch {
			case next <= skipUntil && revOK:
				// At-capacity span: the Charge would reject without mutating.
			case next <= fastUntil && b.Stored()+net <= fastLimit && revOK:
				armRev = b.ChargeProven(next, net)
				revOK = true
			default:
				if acc := b.Charge(next, net); acc < net {
					// At capacity (or just reached it on a partial accept).
					// Arm the span skip through the end of the next day;
					// ChargeNoopUntil proves every Charge at an instant
					// within it is a strict no-op against the live tracker
					// state, including the sample a partial accept just
					// pushed. At theta = 1 the proof fails (capacity fade
					// moves the clamp) and the per-minute path stays.
					end := simtime.Time(dayStart+2*minutesPerDay) * minuteT
					if b.ChargeNoopUntil(next, end) {
						skipUntil, armRev = end, b.CounterRev()
						revOK = true
					} else {
						skipUntil = 0
					}
					fastUntil = 0
				} else {
					// Full accept on the real path: try to prove the rest
					// of the charging run through the end of the next day.
					skipUntil = 0
					end := simtime.Time(dayStart+2*minutesPerDay) * minuteT
					if lim, ok := b.FullAcceptLimit(end); ok {
						fastUntil, fastLimit, armRev = end, lim, b.CounterRev()
						revOK = true
					} else {
						fastUntil = 0
					}
				}
			}
		} else if net < 0 {
			b.Discharge(next, -net)
			skipUntil = 0
			fastUntil = 0
			if whole && p == 0 && sleep60 > 0 {
				// Idle night span: collapse the following run of whole
				// zero-harvest minutes whose EWMA fold is a proven no-op
				// (seen slot holding +0 — SlotZeroNoop). Each such minute's
				// balance is exactly +0 − sleepW60 − 0 = −sleepW60, so the
				// whole run is one uniform-step DischargeRun: the identical
				// per-minute stored-energy subtraction chain with the
				// interior SoC pushes collapsed (they are mid-run samples of
				// a falling monotone run — never turning points, never
				// transitions). The span invariant extends to "no event, no
				// allocation, no degradation query, no per-minute fold or
				// push" for sleeping nodes.
				endM := int64(to / minuteT)
				if dayEnd := dayStart + minutesPerDay; endM > dayEnd {
					endM = dayEnd
				}
				m2 := minute + 1
				for m2 < endM && pow[m2-dayStart] == 0 && ew.SlotZeroNoop(int(m2-dayStart)) {
					m2++
				}
				if m2 > minute+1 {
					b.DischargeRun(next+minuteT, sleep60, int(m2-minute-1))
					cursor = simtime.Time(m2) * minuteT
					minute = m2
					continue
				}
			}
		}
		cursor = next
		minute++
	}
	c.chargeSkipUntil[i] = skipUntil
	c.fastUntil[i] = fastUntil
	c.fastLimit[i] = fastLimit
	c.fastRev[i] = armRev
}

// integrateGeneric is the reference integration path: any source and
// forecaster shape, any store (including Hybrid), one battery call per
// minute. Nodes outside the fast kernel's preconditions always run
// here; the oracle test forces it for every node to pin the kernel.
func (n *Node) integrateGeneric(c *soa, i int, from, to simtime.Time) {
	const minuteT = simtime.Time(simtime.Minute)
	extra := c.extraDrawJ[i]
	c.extraDrawJ[i] = 0
	cursor := from
	minute := int64(cursor / minuteT)
	if n.srcMin != nil {
		// Walk the source's cached per-minute powers for the day directly.
		// A whole-minute step harvests power·60 s; a partial step inside
		// one minute harvests power·elapsed — bit-identical to the
		// interval query, which reduces to the same single product.
		day := minute / minutesPerDay
		dayStart := day * minutesPerDay
		pow := n.srcMin.DayPowers(day)
		for cursor < to {
			if minute-dayStart >= minutesPerDay {
				day = minute / minutesPerDay
				dayStart = day * minutesPerDay
				pow = n.srcMin.DayPowers(day)
			}
			p := pow[minute-dayStart]
			next := simtime.Time(minute+1) * minuteT
			var net float64
			if next <= to && cursor == simtime.Time(minute)*minuteT {
				harvest := p * 60.0
				if n.fcEWMA != nil {
					n.fcEWMA.ObserveFullSlot(int(minute-dayStart), harvest)
				} else {
					n.fc.Observe(cursor, next, harvest)
				}
				net = harvest - 60.0*n.sleepW - extra
			} else {
				if next > to {
					next = to
				}
				secs := next.Sub(cursor).Seconds()
				harvest := p * secs
				n.fc.Observe(cursor, next, harvest)
				net = harvest - secs*n.sleepW - extra
			}
			extra = 0
			if net >= 0 {
				n.Batt.Charge(next, net)
			} else {
				n.Batt.Discharge(next, -net)
			}
			cursor = next
			minute++
		}
		return
	}
	for cursor < to {
		next := simtime.Time(minute+1) * minuteT
		if next > to {
			next = to
		}
		harvest := n.src.Energy(cursor, next)
		secs := next.Sub(cursor).Seconds()
		n.fc.Observe(cursor, next, harvest)
		net := harvest - secs*n.sleepW - extra
		extra = 0
		if net >= 0 {
			n.Batt.Charge(next, net)
		} else {
			n.Batt.Discharge(next, -net)
		}
		cursor = next
		minute++
	}
}
