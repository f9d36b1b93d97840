// Package testbed emulates the paper's physical experiment (Sec. IV-B):
// ten LoRa nodes and one gateway on a single shared channel, each node a
// real concurrently executing goroutine stepping the simulator's own
// node lifecycle (sim.RunConcurrent). Time is virtual: a deterministic
// lock-step clock advances only when every participant is asleep, so a
// 24-hour experiment completes in seconds while preserving true
// asynchrony between nodes (goroutines awake at the same virtual
// instant really do race, as physical nodes do).
package testbed

import (
	"container/heap"
	"fmt"
	"sync"

	"repro/internal/simtime"
)

// sleeper is one goroutine blocked until a virtual instant.
type sleeper struct {
	at  simtime.Time
	seq uint64
	ch  chan struct{}
}

type sleeperHeap []sleeper

func (h sleeperHeap) Len() int { return len(h) }

func (h sleeperHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h sleeperHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *sleeperHeap) Push(x any) { *h = append(*h, x.(sleeper)) }

func (h *sleeperHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// Clock is a virtual lock-step clock for a fixed set of worker
// goroutines. Every worker must only block through Sleep (or quickly,
// on mutexes); when all live workers are asleep the clock jumps to the
// earliest wake-up instant and releases every worker due then.
type Clock struct {
	mu       sync.Mutex
	now      simtime.Time
	workers  int
	seq      uint64
	sleepers sleeperHeap
}

// NewClock returns a clock at virtual time zero with no workers.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AddWorker registers a goroutine that will block via Sleep. It must be
// called before the goroutine's first Sleep (typically before spawning
// it).
func (c *Clock) AddWorker() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers++
}

// Done unregisters a worker; its departure may unblock the rest.
func (c *Clock) Done() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers--
	if c.workers < 0 {
		panic(fmt.Sprintf("testbed: Done called %d times too often", -c.workers))
	}
	c.advanceLocked()
}

// Sleep blocks the calling worker for the given virtual duration.
// Non-positive durations yield the minimal 1 ms tick so that spinning
// workers still let time advance.
func (c *Clock) Sleep(d simtime.Duration) {
	if d <= 0 {
		d = simtime.Millisecond
	}
	c.mu.Lock()
	c.sleepAtLocked(c.now.Add(d))
}

// SleepUntil blocks the calling worker until the given virtual instant.
// An instant at or before the current virtual time returns immediately:
// the caller has already reached t, and sleeping a minimal tick instead
// (as earlier versions did by delegating to Sleep) pushed a late worker
// 1 ms further past the requested instant on every catch-up call. The
// wake-up instant is computed under one lock acquisition, so a worker
// always wakes at exactly t even if the clock advances concurrently.
func (c *Clock) SleepUntil(t simtime.Time) {
	c.mu.Lock()
	if t <= c.now {
		c.mu.Unlock()
		return
	}
	c.sleepAtLocked(t)
}

// sleepAtLocked parks the calling worker until the virtual instant at.
// Callers must hold c.mu; it is released before blocking.
func (c *Clock) sleepAtLocked(at simtime.Time) {
	c.seq++
	s := sleeper{at: at, seq: c.seq, ch: make(chan struct{})}
	heap.Push(&c.sleepers, s)
	c.advanceLocked()
	c.mu.Unlock()
	<-s.ch
}

// advanceLocked releases the earliest sleepers when every live worker is
// asleep. Callers must hold c.mu.
func (c *Clock) advanceLocked() {
	if c.workers <= 0 || len(c.sleepers) == 0 || len(c.sleepers) < c.workers {
		return
	}
	at := c.sleepers[0].at
	if at > c.now {
		c.now = at
	}
	// Wake every sleeper due at this instant; they run concurrently,
	// exactly like physical nodes whose timers fire together.
	for len(c.sleepers) > 0 && c.sleepers[0].at == at {
		close(heap.Pop(&c.sleepers).(sleeper).ch)
	}
}
