package battery

// Rainflow cycle counting (ASTM E1049-style three-point method with a
// residue), in both batch and incremental/streaming forms. The paper's
// gateway recomputes every node's degradation daily from a growing
// multi-year SoC trace; the incremental Counter makes that O(1) amortized
// per sample instead of re-scanning the whole trace on every query.

// Cycle is one rainflow-extracted charge-discharge cycle.
type Cycle struct {
	// Range is the cycle depth delta: max SoC minus min SoC, in [0,1].
	Range float64
	// Mean is the average SoC phi of the cycle: (max + min) / 2.
	Mean float64
	// Count is the cycle type eta: 1 for a full cycle, 0.5 for a half
	// cycle (residue).
	Count float64
}

// Rainflow counts the cycles of a sample sequence in one shot. The input
// need not be strictly alternating: monotone runs are compressed to
// turning points first. Residual unpaired ranges are counted as half
// cycles.
func Rainflow(points []float64) []Cycle {
	var cycles []Cycle
	stack := extract(nil, compressTurningPoints(points), func(c Cycle) {
		cycles = append(cycles, c)
	})
	for i := 0; i+1 < len(stack); i++ {
		cycles = append(cycles, newCycle(stack[i], stack[i+1], 0.5))
	}
	return cycles
}

// extract runs the three-point extraction over the given turning points
// starting from an existing working stack, invoking emit for every
// retired cycle, and returns the updated stack.
func extract(stack, points []float64, emit func(Cycle)) []float64 {
	for _, p := range points {
		stack = append(stack, p)
		for len(stack) >= 3 {
			n := len(stack)
			x := abs(stack[n-1] - stack[n-2])
			y := abs(stack[n-2] - stack[n-3])
			if x < y {
				break
			}
			if n == 3 {
				// The range Y involves the first point of the history: it
				// can never close into a full cycle, so count a half cycle
				// and retire the first point.
				emit(newCycle(stack[0], stack[1], 0.5))
				stack = append(stack[:0], stack[1:]...)
				continue
			}
			// Full cycle formed by the two middle points.
			emit(newCycle(stack[n-3], stack[n-2], 1.0))
			stack = append(stack[:n-3], stack[n-1])
		}
	}
	return stack
}

// Counter is an incremental rainflow counter over a stream of SoC
// samples. Push accepts raw samples (turning points are detected
// internally); cycles that retire permanently are handed to the OnCycle
// callback, and PendingCycles returns, at any time, the cycles that batch
// counting of the whole history so far would additionally report.
//
// Invariant (verified by property tests): at any point of the stream,
//
//	Rainflow(history) == cycles emitted via OnCycle + PendingCycles()
//
// up to ordering.
//
// The zero value is ready to use. Counter is not safe for concurrent use.
type Counter struct {
	// OnCycle, if non-nil, is invoked for every permanently retired cycle.
	OnCycle func(Cycle)

	stack []float64
	last  float64
	dir   int    // +1 rising, -1 falling, 0 before the second distinct sample
	n     int    // raw samples seen
	rev   uint64 // bumped whenever the pending-cycle state may change

	// Per-call scratch, reused to keep the push and degradation-query
	// paths allocation-free.
	probe     [1]float64  // pushTurningPoint's one-point extraction input
	emitFn    func(Cycle) // cached c.emit method value; built once
	pendStack []float64   // AppendPending's working copy of the residue stack
	pendProbe [1]float64  // AppendPending's one-point extraction probe
	pendOut   []Cycle     // cycles emitted by the probe extraction
	pendEmit  func(Cycle) // appends to pendOut; built once, not per call
}

// Push feeds the next SoC sample into the counter.
func (c *Counter) Push(v float64) {
	c.n++
	if c.n == 1 {
		c.last = v
		c.rev++
		return
	}
	switch d := sign(v - c.last); {
	case d == 0:
		// Same value again: stack, last, and pending cycles are all
		// unchanged, so the revision is not bumped.
		return
	case c.dir == 0:
		// First direction established: the first sample is the first
		// turning point of the history.
		c.pushTurningPoint(c.last)
		c.dir = d
	case d != c.dir:
		// Direction change: the previous sample was an extremum.
		c.pushTurningPoint(c.last)
		c.dir = d
	}
	c.last = v
	c.rev++
}

// Revision returns a counter that changes whenever the pending-cycle
// state (and therefore any Damage query derived from it) may have
// changed. It lets callers memoize results on exact inputs.
func (c *Counter) Revision() uint64 { return c.rev }

// ExtendRun collapses k consecutive Push calls that provably continue
// the current monotone run: every collapsed sample lies between the
// current provisional extremum and v, ordered in the established
// direction (equal neighbours permitted — those pushes are no-ops).
// Interior points of a monotone run are never turning points, so the
// stack and direction are untouched; the extremum advances to v, the
// sample count by k, and the revision bumps when the extremum moved.
// The caller owns the precondition: the run must not reverse or
// establish a direction (c.dir != 0 and sign(v-last) is c.dir or 0).
// Battery.DischargeRun is the only intended user.
func (c *Counter) ExtendRun(v float64, k int) {
	if k <= 0 {
		return
	}
	c.n += k
	if v == c.last {
		return
	}
	c.last = v
	c.rev++
}

func (c *Counter) pushTurningPoint(p float64) {
	// The probe slice and the emit callback are cached on the counter: a
	// `[]float64{p}` literal and a `c.emit` method value would both heap
	// allocate on every turning point of a multi-year run.
	if c.emitFn == nil {
		c.emitFn = c.emit
	}
	if c.stack == nil {
		// Skip the early doubling steps; shallow-cycling batteries keep
		// a residue stack of at most a handful of extrema.
		c.stack = make([]float64, 0, 16)
	}
	c.probe[0] = p
	c.stack = extract(c.stack, c.probe[:], c.emitFn)
}

func (c *Counter) emit(cy Cycle) {
	if c.OnCycle != nil {
		c.OnCycle(cy)
	}
}

// PendingCycles returns the not-yet-permanent cycles of the history so
// far: cycles that would close once the current provisional extremum is
// confirmed, plus the open residue counted as half cycles. The counter
// state is not modified; the method may be called at any time (the
// paper's gateway queries once per day).
func (c *Counter) PendingCycles() []Cycle {
	if c.n == 0 {
		return nil
	}
	return c.AppendPending(nil)
}

// AppendPending appends the pending cycles (see PendingCycles) to dst
// and returns it, reusing dst's capacity. The degradation tracker calls
// this on every battery operation of a multi-year run, so the
// allocation-free form matters: the working stack copy, the one-point
// probe, and the extraction output all live in scratch kept inside the
// counter (a closure over dst, or a slice literal for the probe, would
// cost heap allocations on every call).
func (c *Counter) AppendPending(dst []Cycle) []Cycle {
	if c.n == 0 {
		return dst
	}
	if need := len(c.stack) + 1; cap(c.pendStack) < need {
		// Doubling matters: the residue stack grows one element per
		// turning point, so an exact-fit buffer would fall short again
		// on the very next query.
		c.pendStack = make([]float64, 0, max(2*need, 16))
	}
	stack := append(c.pendStack[:0], c.stack...)
	c.pendOut = c.pendOut[:0] // must reset either way: appended below unconditionally
	if len(stack) == 0 || stack[len(stack)-1] != c.last {
		if c.pendEmit == nil {
			c.pendEmit = func(cy Cycle) { c.pendOut = append(c.pendOut, cy) }
			c.pendOut = make([]Cycle, 0, 16)
		}
		c.pendProbe[0] = c.last
		stack = extract(stack, c.pendProbe[:], c.pendEmit)
	}
	c.pendStack = stack[:0]
	halves := max(len(stack)-1, 0)
	if need := len(dst) + len(c.pendOut) + halves; cap(dst) < need {
		nd := make([]Cycle, len(dst), max(2*need, 8))
		copy(nd, dst)
		dst = nd
	}
	dst = append(dst, c.pendOut...)
	for i := 0; i+1 < len(stack); i++ {
		dst = append(dst, newCycle(stack[i], stack[i+1], 0.5))
	}
	return dst
}

// Samples returns the number of raw samples pushed.
func (c *Counter) Samples() int { return c.n }

// compressTurningPoints removes equal neighbours and interior points of
// monotone runs, leaving an alternating extrema sequence.
func compressTurningPoints(points []float64) []float64 {
	var tp []float64
	dir := 0
	for _, v := range points {
		if len(tp) == 0 {
			tp = append(tp, v)
			continue
		}
		last := tp[len(tp)-1]
		if v == last {
			continue
		}
		d := sign(v - last)
		if d == dir {
			tp[len(tp)-1] = v
			continue
		}
		dir = d
		tp = append(tp, v)
	}
	return tp
}

func newCycle(a, b, count float64) Cycle {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return Cycle{Range: hi - lo, Mean: (hi + lo) / 2, Count: count}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v float64) int {
	if v > 0 {
		return 1
	}
	if v < 0 {
		return -1
	}
	return 0
}
