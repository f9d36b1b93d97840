package core

import (
	"fmt"

	"repro/internal/mathx"
)

// TxEnergyEstimator is the exponentially weighted moving average of
// per-packet transmission energy, Eq. (13):
//
//	e[p] = beta * E[p-1] + (1 - beta) * e[p-1]
//
// where E[p-1] is the energy actually spent on the previous packet
// (including retransmissions) and beta weights recent observations.
type TxEnergyEstimator struct {
	beta     float64
	initial  float64
	estimate float64
	seen     bool
}

// NewTxEnergyEstimator returns an estimator with the given recency
// weight (clamped into (0,1]) and an initial estimate, typically the
// single-attempt transmission energy of the node's radio settings.
func NewTxEnergyEstimator(beta, initial float64) *TxEnergyEstimator {
	initial = max(0, initial)
	return &TxEnergyEstimator{
		beta:     min(1, max(1e-3, beta)),
		initial:  initial,
		estimate: initial,
	}
}

// Reset discards all observations, returning the estimator to its
// just-constructed state (a node rebooting after a brownout loses this
// volatile state).
func (e *TxEnergyEstimator) Reset() {
	e.estimate = e.initial
	e.seen = false
}

// Observe folds the actual energy consumption of the last packet into
// the estimate.
func (e *TxEnergyEstimator) Observe(actualJ float64) {
	if actualJ < 0 {
		return
	}
	if !e.seen && e.estimate == 0 {
		e.estimate = actualJ
		e.seen = true
		return
	}
	e.seen = true
	e.estimate = e.beta*actualJ + (1-e.beta)*e.estimate
}

// Estimate returns the current transmission-energy estimate in joules.
func (e *TxEnergyEstimator) Estimate() float64 { return e.estimate }

// RetxHistory tracks, per forecast window index, how many retransmissions
// past packets needed (Eq. 14). The protocol uses the expected number of
// attempts per window to inflate that window's energy estimate, which
// steers nodes away from historically crowded windows.
type RetxHistory struct {
	maxRetx int
	windows int
	// counts is the I_{r,t} matrix flattened row-major: window w's
	// retransmission counts live in counts[w*(maxRetx+1) : (w+1)*(maxRetx+1)].
	// One flat allocation keeps the per-packet Observe/Prob touches on a
	// single contiguous block instead of chasing a row pointer.
	counts   []uint32
	selected []uint32 // S_t
	weighted []uint64 // sum over r of r * counts[window][r], kept incrementally
	// attempts memoizes ExpectedAttempts per window between observations
	// (0 = not cached; genuine values are always >= 1). The decision path
	// queries every window per packet while only the chosen window's
	// history changes.
	attempts []float64
}

// NewRetxHistory returns a history for window indexes [0, windows) and
// retransmission counts [0, maxRetx].
func NewRetxHistory(windows, maxRetx int) (*RetxHistory, error) {
	if windows <= 0 {
		return nil, fmt.Errorf("core: retx history needs at least one window, got %d", windows)
	}
	if maxRetx < 0 {
		return nil, fmt.Errorf("core: negative max retransmissions %d", maxRetx)
	}
	// counts and selected share one allocation (same element type, same
	// lifetime); a simulation builds one history per node.
	cs := make([]uint32, windows*(maxRetx+1)+windows)
	return &RetxHistory{
		maxRetx:  maxRetx,
		windows:  windows,
		counts:   cs[: windows*(maxRetx+1) : windows*(maxRetx+1)],
		selected: cs[windows*(maxRetx+1):],
		weighted: make([]uint64, windows),
		attempts: make([]float64, windows),
	}, nil
}

// Windows returns the number of window indexes tracked.
func (h *RetxHistory) Windows() int { return h.windows }

// Reset clears all recorded observations (volatile state lost on a node
// brownout), returning every window to the optimistic no-history prior.
func (h *RetxHistory) Reset() {
	clear(h.counts)
	clear(h.selected)
	clear(h.weighted)
	clear(h.attempts)
}

// Observe records that a packet sent in the given window needed the
// given number of retransmissions. Out-of-range values are clamped, so
// nodes whose sampling period shrank keep learning.
func (h *RetxHistory) Observe(window, retx int) {
	window = mathx.ClampInt(window, 0, h.windows-1)
	retx = mathx.ClampInt(retx, 0, h.maxRetx)
	h.counts[window*(h.maxRetx+1)+retx]++
	h.selected[window]++
	h.weighted[window] += uint64(retx)
	h.attempts[window] = 0
}

// Prob returns P(retx <= r | window) per Eq. (14): the cumulative
// probability of needing at most r retransmissions in the window. With
// no history it returns 1 for any r >= 0 (optimistic prior: no
// retransmissions expected).
func (h *RetxHistory) Prob(r, window int) float64 {
	window = mathx.ClampInt(window, 0, h.windows-1)
	if r < 0 {
		return 0
	}
	r = mathx.ClampInt(r, 0, h.maxRetx)
	s := h.selected[window]
	if s == 0 {
		return 1
	}
	row := h.counts[window*(h.maxRetx+1):]
	var cum uint32
	for i := 0; i <= r; i++ {
		cum += row[i]
	}
	return float64(cum) / float64(s)
}

// ExpectedAttempts returns 1 plus the historical mean retransmission
// count of the window; the optimistic prior with no history is 1. The
// numerator is maintained incrementally by Observe — an integer sum, so
// it equals the fold over counts exactly.
func (h *RetxHistory) ExpectedAttempts(window int) float64 {
	window = mathx.ClampInt(window, 0, h.windows-1)
	if a := h.attempts[window]; a != 0 {
		return a
	}
	return h.fillAttempts(window)
}

// fillAttempts computes and memoizes the expected attempt count of a
// window, including the no-history prior (genuine values are always
// >= 1, so 0 stays free as the not-cached marker and Observe/Reset
// invalidate by zeroing).
func (h *RetxHistory) fillAttempts(window int) float64 {
	a := 1.0
	if s := h.selected[window]; s != 0 {
		a = 1 + float64(h.weighted[window])/float64(s)
	}
	h.attempts[window] = a
	return a
}

// AttemptsVec returns the expected attempt counts of windows [0, n) as
// one slice — the memo itself, refreshed where invalidated — letting the
// per-packet decision read all factors without a method call per window.
// The slice aliases the memo: it is read-only and valid until the next
// Observe or Reset. A request beyond the tracked window range returns
// nil (callers fall back to per-window queries, which clamp).
func (h *RetxHistory) AttemptsVec(n int) []float64 {
	if n > h.windows {
		return nil
	}
	v := h.attempts[:n]
	for t, a := range v {
		if a == 0 {
			v[t] = h.fillAttempts(t)
		}
	}
	return v
}

// Selections returns how many packets were observed for the window.
func (h *RetxHistory) Selections(window int) int {
	window = mathx.ClampInt(window, 0, h.windows-1)
	return int(h.selected[window])
}

// DIF is the Degradation Impact Factor of transmitting in a forecast
// window, Eq. (15):
//
//	DIF = (max(eTx, gen) - gen) / maxTx
//
// where eTx is the estimated energy a transmission will consume in the
// window, gen the forecast green-energy generation, and maxTx the
// maximum possible transmission energy. The result is clamped to [0,1]:
// 0 means green energy fully covers the transmission (no cycle-aging
// impact), 1 means the battery funds a worst-case transmission alone.
func DIF(estTxJ, forecastGenJ, maxTxJ float64) float64 {
	if maxTxJ <= 0 {
		return 1
	}
	if forecastGenJ < 0 {
		forecastGenJ = 0
	}
	d := (max(estTxJ, forecastGenJ) - forecastGenJ) / maxTxJ
	return min(1, max(0, d))
}
