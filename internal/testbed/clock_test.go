package testbed

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simtime"
)

func TestClockSingleWorker(t *testing.T) {
	c := NewClock()
	c.AddWorker()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.Done()
		c.Sleep(10 * simtime.Second)
		if got := c.Now(); got != simtime.Time(10*simtime.Second) {
			t.Errorf("Now = %v, want 10 s", got)
		}
		c.SleepUntil(simtime.Time(simtime.Minute))
		if got := c.Now(); got != simtime.Time(simtime.Minute) {
			t.Errorf("Now = %v, want 1 min", got)
		}
	}()
	<-done
}

func TestClockLockStepOrdering(t *testing.T) {
	c := NewClock()
	var mu sync.Mutex
	var order []int

	c.AddWorker()
	c.AddWorker()
	var wg sync.WaitGroup
	wg.Add(2)
	// Worker A wakes at 10, 30; worker B at 20, 40.
	go func() {
		defer wg.Done()
		defer c.Done()
		for _, d := range []simtime.Duration{10, 20} {
			c.Sleep(d)
			mu.Lock()
			order = append(order, int(c.Now()))
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		defer c.Done()
		for _, d := range []simtime.Duration{20, 20} {
			c.Sleep(d)
			mu.Lock()
			order = append(order, int(c.Now()))
			mu.Unlock()
		}
	}()
	wg.Wait()
	want := []int{10, 20, 30, 40}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestClockSimultaneousWakeups(t *testing.T) {
	c := NewClock()
	const workers = 8
	var awake atomic.Int32
	var maxAwake atomic.Int32

	// Register every worker before any starts, or the first to sleep
	// advances the clock alone.
	for i := 0; i < workers; i++ {
		c.AddWorker()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Done()
			for k := 0; k < 50; k++ {
				c.Sleep(simtime.Second) // all workers share every instant
				n := awake.Add(1)
				for {
					cur := maxAwake.Load()
					if n <= cur || maxAwake.CompareAndSwap(cur, n) {
						break
					}
				}
				awake.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != simtime.Time(50*simtime.Second) {
		t.Errorf("final time = %v, want 50 s", got)
	}
	if maxAwake.Load() < 2 {
		t.Log("no observed concurrency between same-instant workers (scheduling-dependent)")
	}
}

func TestClockWorkerExitUnblocksOthers(t *testing.T) {
	c := NewClock()
	c.AddWorker()
	c.AddWorker()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.Sleep(simtime.Second)
		c.Done() // leaves while the other worker sleeps further
	}()
	go func() {
		defer wg.Done()
		defer c.Done()
		c.Sleep(10 * simtime.Second)
	}()
	wg.Wait()
	if got := c.Now(); got != simtime.Time(10*simtime.Second) {
		t.Errorf("final time = %v, want 10 s", got)
	}
}

// TestClockSleepUntilPastInstant is the regression test for the
// SleepUntil drift bug: an instant at or before virtual now used to
// degrade into a 1 ms Sleep, pushing the caller past the requested
// instant — a worker catching up in a SleepUntil loop drifted 1 ms
// further behind per call. SleepUntil(t <= now) must return immediately
// and leave the clock untouched.
func TestClockSleepUntilPastInstant(t *testing.T) {
	c := NewClock()
	c.AddWorker()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.Done()
		c.Sleep(10 * simtime.Millisecond)
		for i := 0; i < 100; i++ {
			c.SleepUntil(simtime.Time(5 * simtime.Millisecond)) // past
		}
		c.SleepUntil(simtime.Time(10 * simtime.Millisecond)) // exactly now
	}()
	<-done
	if got := c.Now(); got != simtime.Time(10*simtime.Millisecond) {
		t.Errorf("clock drifted to %v after catch-up SleepUntil calls, want 10 ms", got)
	}
}

// TestClockSleepUntilExactInstant pins that a future target is reached
// exactly, with no extra tick.
func TestClockSleepUntilExactInstant(t *testing.T) {
	c := NewClock()
	c.AddWorker()
	done := make(chan struct{})
	target := simtime.Time(1234 * simtime.Millisecond)
	go func() {
		defer close(done)
		defer c.Done()
		c.SleepUntil(target)
	}()
	<-done
	if got := c.Now(); got != target {
		t.Errorf("woke at %v, want exactly %v", got, target)
	}
}

func TestClockNonPositiveSleep(t *testing.T) {
	c := NewClock()
	c.AddWorker()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.Done()
		c.Sleep(0)
		c.Sleep(-5)
	}()
	<-done
	if c.Now() <= 0 {
		t.Error("zero/negative sleeps must still advance the clock")
	}
}

func TestClockManyWorkersStress(t *testing.T) {
	c := NewClock()
	const workers = 32
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		c.AddWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Done()
			for k := 0; k < 200; k++ {
				c.Sleep(simtime.Duration(1 + (i+k)%7))
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != workers*200 {
		t.Errorf("wakeups = %d, want %d", got, workers*200)
	}
}
