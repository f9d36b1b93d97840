package battery

import (
	"fmt"

	"repro/internal/simtime"
)

// Transition is one charge<->discharge direction change of a battery: the
// compressed SoC-trace sample that a node piggy-backs on its next data
// packet (Sec. III-B, "Overhead of sharing battery trace").
type Transition struct {
	// At is when the direction changed.
	At simtime.Time
	// SoC is the state of charge at the transition, as a fraction of the
	// original capacity.
	SoC float64
}

// Battery is the software-defined rechargeable battery of one node: it
// tracks stored energy, enforces the protocol's charge limit theta,
// accumulates its own ground-truth SoC history for degradation
// accounting, and records the direction-change transitions that the node
// reports to the gateway.
//
// Battery is not safe for concurrent use; in the simulator each battery
// belongs to exactly one node.
type Battery struct {
	model    Model
	tempC    float64
	original float64 // original maximum capacity, joules
	stored   float64 // current stored energy, joules
	tracker  *Tracker

	fade    float64 // cached capacity-fade fraction in [0,1)
	fadeAge simtime.Duration

	chargeLimit float64 // theta: max stored energy as fraction of current max capacity

	lastDir     int // +1 charging, -1 discharging
	transitions []Transition
}

// New returns a battery with the given original capacity in joules and
// initial state of charge (fraction of original capacity), at a fixed
// internal temperature in Celsius.
func New(model Model, capacityJ, initialSoC, tempC float64) (*Battery, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if capacityJ <= 0 {
		return nil, fmt.Errorf("battery: capacity %v J must be positive", capacityJ)
	}
	if initialSoC < 0 || initialSoC > 1 {
		return nil, fmt.Errorf("battery: initial SoC %v outside [0,1]", initialSoC)
	}
	b := &Battery{
		model:       model,
		tempC:       tempC,
		original:    capacityJ,
		stored:      initialSoC * capacityJ,
		tracker:     NewTracker(model, tempC),
		chargeLimit: 1,
	}
	b.tracker.Push(b.soc())
	return b, nil
}

// SetChargeLimit sets theta: the maximum energy the battery is allowed to
// store, as a fraction of its current maximum capacity. The paper's H-50
// uses 0.5; plain LoRaWAN uses 1. Values are clamped to [0,1]. Any excess
// already stored is not shed; it simply stops accepting charge.
func (b *Battery) SetChargeLimit(theta float64) {
	b.chargeLimit = min(1, max(0, theta))
}

// ChargeLimit returns the configured theta.
func (b *Battery) ChargeLimit() float64 { return b.chargeLimit }

// OriginalCapacity returns the as-new capacity in joules.
func (b *Battery) OriginalCapacity() float64 { return b.original }

// CurrentMaxCapacity returns the degraded capacity in joules at the given
// instant.
func (b *Battery) CurrentMaxCapacity(now simtime.Time) float64 {
	b.refresh(now)
	return b.original * (1 - b.fade)
}

// Stored returns the energy currently stored, in joules.
func (b *Battery) Stored() float64 { return b.stored }

// SoC returns the state of charge as a fraction of the ORIGINAL capacity,
// the paper's Sec. II-C definition (used by the degradation model).
func (b *Battery) SoC() float64 { return b.soc() }

func (b *Battery) soc() float64 { return b.stored / b.original }

// Headroom returns how much more energy the battery would accept right
// now, given theta and the degraded capacity.
func (b *Battery) Headroom(now simtime.Time) float64 {
	limit := b.chargeLimit * b.CurrentMaxCapacity(now)
	return max(0, limit-b.stored)
}

// Charge stores up to the given energy, returning the amount actually
// accepted after applying the theta limit and the degraded capacity.
func (b *Battery) Charge(now simtime.Time, joules float64) float64 {
	if joules <= 0 {
		return 0
	}
	accepted := min(joules, b.Headroom(now))
	if accepted <= 0 {
		return 0
	}
	b.stored += accepted
	b.record(now, +1)
	return accepted
}

// Discharge draws up to the given energy, returning the amount actually
// supplied (less than requested if the battery runs empty).
func (b *Battery) Discharge(now simtime.Time, joules float64) float64 {
	if joules <= 0 {
		return 0
	}
	supplied := min(joules, b.stored)
	if supplied <= 0 {
		return 0
	}
	b.stored -= supplied
	b.record(now, -1)
	return supplied
}

// CanSupply reports whether the battery currently stores at least the
// given energy.
func (b *Battery) CanSupply(joules float64) bool { return b.stored >= joules }

// DischargeRun draws step joules per sample for count consecutive
// samples — the node integrator's idle night span, one sample per
// minute — leaving every observable (stored energy, SoC-trace counter
// state, transitions, sample count) exactly as count sequential
// Discharge(_, step) calls would. The stored-energy updates run the
// identical one-subtraction-per-sample chain (never a summed batch,
// which would re-associate), but once the counter is mid-run in the
// falling direction the per-sample SoC pushes collapse via
// Counter.ExtendRun: interior samples of a strictly decreasing run are
// never turning points, record no transitions, and cannot flip the
// direction, so only the final extremum matters.
//
// now is the instant of the run's first sample. It is only ever used
// for transition timestamps, and a run can record at most one
// transition — at its first supplying sample, before the fast path
// engages — so the single instant reproduces the per-call path's
// timestamps exactly.
func (b *Battery) DischargeRun(now simtime.Time, step float64, count int) {
	for count > 0 {
		c := &b.tracker.counter
		if c.dir == -1 && b.lastDir == -1 && b.stored > 0 && step > 0 {
			// Mid-run: every further supplying sample strictly lowers the
			// SoC (the stored-energy chain is strictly decreasing and
			// division by the positive capacity is monotone), continuing
			// the falling run until the battery empties; samples after
			// that supply nothing and push nothing.
			k := 0
			for i := 0; i < count; i++ {
				supplied := min(step, b.stored)
				if supplied <= 0 {
					break
				}
				b.stored -= supplied
				k++
			}
			c.ExtendRun(b.soc(), k)
			return
		}
		// First sample (or an empty/degenerate battery): the full path
		// handles direction flips, transition recording, and run
		// establishment. At most one supplying sample lands here — it
		// leaves both direction markers falling — so the loop re-tests
		// the fast path immediately after.
		b.Discharge(now, step)
		count--
	}
}

// record pushes the post-operation SoC into the ground-truth tracker and
// logs a reportable transition when the charge/discharge direction flips.
func (b *Battery) record(now simtime.Time, dir int) {
	soc := b.soc()
	b.tracker.Push(soc)
	if b.lastDir != 0 && dir != b.lastDir {
		if b.transitions == nil {
			// Skip the 1→2→4→8 growth chain every battery would walk.
			b.transitions = make([]Transition, 0, 8)
		}
		b.transitions = append(b.transitions, Transition{At: now, SoC: soc})
	}
	b.lastDir = dir
}

// DrainTransitions returns the direction-change transitions recorded
// since the previous call and clears the pending list. The node appends
// these to its next uplink packet.
func (b *Battery) DrainTransitions() []Transition {
	t := b.transitions
	b.transitions = nil
	return t
}

// AppendTransitions appends the pending transitions to dst, clears the
// pending list, and returns dst. Unlike DrainTransitions it keeps the
// internal buffer's capacity, so a caller that copies the values out
// anyway (the node's report queue) drains without allocating once the
// buffer has grown to its steady-state size.
func (b *Battery) AppendTransitions(dst []Transition) []Transition {
	if need := len(dst) + len(b.transitions); cap(dst) < need {
		nd := make([]Transition, len(dst), max(2*need, 8))
		copy(nd, dst)
		dst = nd
	}
	dst = append(dst, b.transitions...)
	b.transitions = b.transitions[:0]
	return dst
}

// ChargeNoopUntil reports whether, with the battery otherwise untouched,
// every Charge call at an instant in (now, end] would be a strict no-op:
// zero headroom throughout the span and no capacity clamp moving the
// stored energy. The node integrator uses this to skip the per-minute
// Charge calls of an at-capacity span entirely — bit-identical, because
// a rejected Charge mutates nothing but the pure fade cache.
//
// The proof obligations, both resting on fade being non-decreasing in
// age for a FIXED SoC history (calendar aging is monotone in time and
// cycle aging is constant while nothing is pushed):
//
//   - Headroom stays zero: with the history frozen, the smallest fade
//     in the span is the one at now, so chargeLimit·original·(1−fade(now))
//     bounds the true limit at every later instant. If even that bound
//     does not exceed stored, headroom is zero everywhere. The fade must
//     come from the live tracker, not the battery's cache: arming right
//     after a partial accept means that Charge pushed a sample AFTER the
//     cache was last refreshed, and the new sample can lower the
//     cycle-mean SoC — and with it the fade — at the next minute.
//   - No clamp: refresh clamps stored to original·(1−fade(t)); the
//     tightest clamp in the span is at end, so checking stored against
//     the end-of-span capacity covers every earlier instant. The queries
//     go through the tracker directly — a pure memoized function — so
//     the battery's own fade cache is left exactly as the skipped
//     per-minute path would leave it for any later reader (refresh
//     recomputes from the tracker whenever a newer age is queried).
//
// Any push invalidates the answer — a Discharge, a Charge that accepts
// energy, or any out-of-band sample; callers must watch CounterRev and
// re-query when it moves.
func (b *Battery) ChargeNoopUntil(now, end simtime.Time) bool {
	if b.chargeLimit*(b.original*(1-b.tracker.Degradation(simtime.Duration(now)))) > b.stored {
		return false
	}
	return b.stored <= b.original*(1-b.tracker.Degradation(simtime.Duration(end)))
}

// FullAcceptLimit returns a stored-energy level L (joules) such that,
// until end, any sequence of positive Charge calls that keeps the
// stored energy at or below L is guaranteed to be accepted in full with
// no capacity clamp — so each such Charge may be replaced by
// ChargeProven, skipping the per-minute degradation query entirely. The
// second result is false when the battery is already at or above L (no
// useful span exists).
//
// The proof: every charge in the span pushes a strictly larger SoC — a
// monotone run — so Tracker.DegradationCeiling bounds the fade at every
// instant t <= end. With stored+joules <= L = theta·original·(1−ceiling):
//
//   - refresh(t) cannot clamp: stored <= L <= original·(1−fade(t));
//   - Headroom(t) = theta·original·(1−fade(t)) − stored >= joules, so
//     accepted == joules exactly;
//   - the skipped refresh mutates only the pure fade cache, which any
//     later reader recomputes identically from the tracker.
//
// The guarantee is conditional on the battery's SoC history not gaining
// a turning point mid-span; callers must watch CounterRev and fall back
// to plain Charge when it moves unexpectedly (any Discharge, or any
// push outside the proven calls).
func (b *Battery) FullAcceptLimit(end simtime.Time) (float64, bool) {
	limit := b.chargeLimit * b.original * (1 - b.tracker.DegradationCeiling(simtime.Duration(end)))
	return limit, limit > b.stored
}

// ChargeProven charges joules whose full acceptance a prior
// FullAcceptLimit proof guarantees, skipping the degradation refresh a
// plain Charge would run. It returns the SoC-history revision after the
// push so the caller can detect interleaved battery activity. joules
// must be positive and stored+joules must not exceed the proven limit;
// ChargeProven does not re-check.
func (b *Battery) ChargeProven(now simtime.Time, joules float64) uint64 {
	b.stored += joules
	b.record(now, +1)
	return b.tracker.counter.rev
}

// CounterRev returns the battery's SoC-history revision: it moves on
// every sample that may change pending cycles. FullAcceptLimit spans
// are valid only while the revision matches the proven sequence.
func (b *Battery) CounterRev() uint64 { return b.tracker.counter.rev }

// PendingTransitions returns how many transitions await reporting.
func (b *Battery) PendingTransitions() int { return len(b.transitions) }

// refresh recomputes the cached capacity fade if the battery aged since
// the last computation, clamping stored energy to the shrunken capacity.
func (b *Battery) refresh(now simtime.Time) {
	age := simtime.Duration(now)
	if age <= b.fadeAge {
		return
	}
	b.fade = b.tracker.Degradation(age)
	b.fadeAge = age
	if maxCap := b.original * (1 - b.fade); b.stored > maxCap {
		b.stored = maxCap
	}
}

// Degradation returns the ground-truth capacity fade at the given instant.
func (b *Battery) Degradation(now simtime.Time) float64 {
	b.refresh(now)
	return b.fade
}

// Damage returns the full ground-truth degradation breakdown.
func (b *Battery) Damage(now simtime.Time) Breakdown {
	return b.tracker.Damage(simtime.Duration(now))
}

// AtEoL reports whether the battery reached its end of life (capacity
// fade at or beyond the model's threshold).
func (b *Battery) AtEoL(now simtime.Time) bool {
	return b.Degradation(now) >= b.model.EoLThreshold
}

// Model returns the degradation model of this battery.
func (b *Battery) Model() Model { return b.model }
