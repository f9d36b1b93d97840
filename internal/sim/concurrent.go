package sim

import (
	"errors"
	"sync"

	"repro/internal/simtime"
)

// Clock is the virtual wall clock RunConcurrent drives its goroutines
// on. Every worker registers with AddWorker before it starts and with
// Done when it exits, and blocks only in SleepUntil (or briefly on a
// mutex); the clock advances when every live worker is asleep.
// SleepUntil returns at once for an instant that has already passed.
type Clock interface {
	Now() simtime.Time
	SleepUntil(t simtime.Time)
	AddWorker()
	Done()
}

// RunConcurrent runs the scenario the way the paper's testbed does:
// every node is its own goroutine that calls the same lifecycle steps
// as the event handlers, sleeping on clock in between. One more goroutine
// runs the network server's degradation recomputation on the
// dissemination grid. Steps that touch the shared medium or the network
// server hold one mutex; everything else runs concurrently. Goroutines
// that wake at the same virtual instant race as physical nodes do, so
// results vary slightly from run to run.
//
// Brownouts apply at sampling-cycle granularity, and each node records
// its observability timeline row at every decision instant. The
// per-packet and monthly hooks would run on node goroutines and
// run-to-EoL needs the event engine, so all are rejected; only Hooks.Obs
// is supported.
func (s *Simulation) RunConcurrent(clock Clock) (*Result, error) {
	if s.hooks.OnDecision != nil || s.hooks.OnPacketDone != nil || s.hooks.OnMonth != nil {
		return nil, errors.New("sim: RunConcurrent supports no hooks but Obs")
	}
	if s.cfg.RunToEoL {
		return nil, errors.New("sim: run-to-EoL needs the event engine")
	}
	// One lane holds the single medium and no engine; each node's
	// goroutine fills its own solar day cache.
	ln := &shard{s: s, med: s.med}
	s.shards, s.coord, s.lanes, s.gwShard, s.shardsUsed = []*shard{ln}, ln, []*shard{ln}, nil, 1

	d := &driver{s: s, ln: ln, clock: clock, end: simtime.Time(s.cfg.Duration)}
	// Register every worker before any starts: the first one to sleep
	// would otherwise let the clock run ahead of the rest.
	for range len(s.nodes) + 1 {
		clock.AddWorker()
	}
	var wg sync.WaitGroup
	spawn := func(work func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer clock.Done()
			work()
		}()
	}
	spawn(d.gateway)
	for _, n := range s.nodes {
		spawn(func() { d.node(n) })
	}
	wg.Wait()
	return s.collect(d.end), nil
}

// driver steps the simulation's nodes on goroutines under a virtual
// clock.
type driver struct {
	s     *Simulation
	ln    *shard
	clock Clock
	end   simtime.Time
	mu    sync.Mutex // guards the medium and the network server
}

// sleepUntil sleeps until t and reports whether t is still inside the
// run; like the event engine, nothing after the horizon happens.
func (d *driver) sleepUntil(t simtime.Time) bool {
	if t > d.end {
		return false
	}
	d.clock.SleepUntil(t)
	return true
}

// gateway recomputes the degradation weights on the dissemination grid.
func (d *driver) gateway() {
	for t := simtime.Time(0); d.sleepUntil(t); t = t.Add(d.s.cfg.DegradationInterval) {
		d.mu.Lock()
		d.s.recompute(t)
		d.mu.Unlock()
	}
}

// node runs one node's sampling cycle. A cycle starts late only when
// the previous packet's last exchange overran it; the packet keeps its
// nominal generation instant.
func (d *driver) node(n *Node) {
	s := d.s
	nextBO, brownouts := s.plan.NextBrownout(n.ID, 0)
	pkt := &packet{}
	for gen := s.firstGenerate(n); d.sleepUntil(gen); gen = gen.Add(n.Period) {
		now := d.clock.Now()
		n.integrate(now)
		if brownouts && now >= nextBO {
			d.mu.Lock()
			s.restart(n, now)
			d.mu.Unlock()
			nextBO, brownouts = s.plan.NextBrownout(n.ID, now)
		}
		if n.obsTL != nil {
			n.sample(now)
		}
		if window, at, send := s.decide(n, now); send {
			d.transmit(n, pkt.open(n, gen, window), at)
		}
	}
}

// transmit runs the packet's attempt / ACK / retransmission cycle from
// its first attempt at the given instant. As under the event engine, a
// packet still in flight when its deadline (the next generation)
// arrives has failed, though its uplink or ACK still occupies the
// radio, and a packet in flight at the horizon stays unsettled.
func (d *driver) transmit(n *Node, pkt *packet, at simtime.Time) {
	s := d.s
	fail := func() { s.settle(n, pkt, false, d.clock.Now()) }
	for {
		if !d.sleepUntil(at) {
			return
		}
		n.integrate(at)
		sf, end, ok := s.startAttempt(n, pkt, at)
		if !ok {
			if at, ok = s.energyRetry(n, pkt, at); !ok {
				fail()
				return
			}
			continue
		}
		d.mu.Lock()
		tx, _ := d.ln.beginUplink(n, sf, at, end)
		d.mu.Unlock()
		if !d.sleepUntil(end) {
			return
		}
		n.integrate(end)
		d.mu.Lock()
		gws := d.ln.endUplink(n, tx, nil)
		if end >= pkt.deadline {
			d.mu.Unlock()
			fail()
			return
		}
		gw, ackEnd, acked := s.deliver(n, pkt, gws, end)
		d.mu.Unlock()
		if !acked {
			if at, ok = s.backoff(n, pkt, end); !ok {
				fail()
				return
			}
			continue
		}
		if !d.sleepUntil(end.Add(rx1Delay)) {
			return
		}
		d.mu.Lock()
		d.ln.med.BeginDownlink(gw, ackEnd)
		d.mu.Unlock()
		if !d.sleepUntil(ackEnd) {
			return
		}
		if ackEnd >= pkt.deadline {
			fail()
			return
		}
		n.integrate(ackEnd)
		d.mu.Lock()
		s.acked(n, pkt, ackEnd)
		d.mu.Unlock()
		return
	}
}
