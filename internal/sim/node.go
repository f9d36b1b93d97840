package sim

import (
	"math/rand/v2"

	"repro/internal/battery"
	"repro/internal/energy"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Node is one simulated end device.
type Node struct {
	ID        int
	Pos       radio.Position
	DistanceM float64
	Params    lora.Params
	Period    simtime.Duration
	Windows   int // forecast windows per sampling period
	CapacityJ float64

	Proto mac.Protocol
	Batt  battery.Store
	Stats *metrics.NodeStats

	src        energy.Source
	srcMin     energy.MinuteSource // non-nil when src answers per-minute queries O(1)
	powCache   []float64           // srcMin.DayPowers(powDay); the integrators wake once per event, so the interface call is cached per day
	powDay     int64               // day powCache holds; only valid while powCache != nil
	fc         energy.Forecaster
	fcEWMA     *energy.DiurnalEWMA // non-nil when fc supports slot-direct observations
	rng        *rand.Rand
	sleepW     float64   // baseline power draw in watts
	rxPowerDBm []float64 // static received power at each gateway

	rxEnergyJ  float64          // receive-window cost per attempt
	ackAirtime simtime.Duration // downlink ACK duration at this SF
	span       simtime.Duration // worst-case attempt duration, precomputed
	obsTL      *obs.NodeTimeline

	// Sharded execution: owner is the lane whose engine runs this node's
	// events (set per run); borderPow is non-nil only for border nodes —
	// one masked power vector per worker lane that can hear the node,
	// nil entries for lanes that cannot.
	owner     *shard
	borderPow [][]float64

	// core/idx locate the node's integration-hot state in the
	// struct-of-arrays node core (core.go).
	core *soa
	idx  int

	pkt          *packet
	pendingTrans []battery.Transition // SoC transitions awaiting report
	transPair    [2]battery.Transition
	transBuf     []battery.Transition // reused drain buffer
	reportBuf    []battery.Report     // reused wire-encoding buffer
}

// draw charges radio energy against the node's energy balance. Per the
// paper's software-defined switch (Eq. 5), consumption within a window
// is netted against that window's green generation; only the shortfall
// discharges the battery, so a transmission fully covered by harvest
// causes no SoC dip at all.
func (n *Node) draw(joules float64) {
	c, i := n.ensureCore()
	c.extraDrawJ[i] += joules
}

// paramsForAttempt applies the LoRaWAN retransmission back-off: the data
// rate drops (SF rises) every two attempts, up to SF12. Retransmissions
// therefore cost progressively more energy and airtime — the mechanism
// that makes collision-heavy pure ALOHA so expensive for the battery.
func (n *Node) paramsForAttempt(attemptIdx int) lora.Params {
	p := n.Params
	sf := p.SF + lora.SpreadingFactor(attemptIdx/2)
	if sf > lora.MaxSF {
		sf = lora.MaxSF
	}
	p.SF = sf
	return p
}

// packet is the in-flight uplink of a node (at most one at a time).
// Packets are recycled through the simulation's free list; gen counts
// lives so events scheduled for an earlier life are ignored.
type packet struct {
	gen          uint64
	genAt        simtime.Time
	deadline     simtime.Time // next packet's generation
	window       int
	attempts     int
	radioEnergyJ float64 // total radio draw: transmissions + rx windows
	finished     bool
	next         *packet // free-list link
}

// open starts a new packet life at node n: generated at genAt for the
// given window, due by the node's next generation.
func (p *packet) open(n *Node, genAt simtime.Time, window int) *packet {
	p.genAt, p.deadline, p.window = genAt, genAt.Add(n.Period), window
	p.attempts, p.radioEnergyJ, p.finished = 0, 0, false
	n.pkt = p
	return p
}

// sample records the node's observability timeline row at now.
func (n *Node) sample(now simtime.Time) {
	bd := n.Batt.Damage(now)
	n.obsTL.Record(now, n.Batt.SoC(), bd.Calendar, bd.Cycle, bd.Total, len(n.pendingTrans))
}

// minutesPerDay mirrors the energy package's day-cache granularity.
const minutesPerDay = 24 * 60

// integrate lives in core.go alongside the struct-of-arrays node core.

// drainReports appends the battery's new SoC transitions to the pending
// report queue, compressed to the paper's two-per-period budget: only
// the extreme (min and max SoC) transitions of each drain survive.
func (n *Node) drainReports() {
	n.transBuf = n.Batt.AppendTransitions(n.transBuf[:0])
	trans := n.transBuf
	if len(trans) == 0 {
		return
	}
	if len(trans) > 2 {
		loIdx, hiIdx := 0, 0
		for i, tr := range trans {
			if tr.SoC < trans[loIdx].SoC {
				loIdx = i
			}
			if tr.SoC > trans[hiIdx].SoC {
				hiIdx = i
			}
		}
		first, second := loIdx, hiIdx
		if first > second {
			first, second = second, first
		}
		if first == second {
			trans = trans[first : first+1]
		} else {
			n.transPair[0], n.transPair[1] = trans[first], trans[second]
			trans = n.transPair[:]
		}
	}
	// Bound the backlog: a node that cannot deliver for a long time keeps
	// only the most recent reports (the gateway tolerates gaps).
	const maxBacklog = 16
	if n.pendingTrans == nil {
		// The backlog never exceeds maxBacklog entries, so one full-size
		// allocation replaces the append growth chain.
		n.pendingTrans = make([]battery.Transition, 0, maxBacklog+2)
	}
	n.pendingTrans = append(n.pendingTrans, trans...)
	if len(n.pendingTrans) > maxBacklog {
		n.pendingTrans = append(n.pendingTrans[:0], n.pendingTrans[len(n.pendingTrans)-maxBacklog:]...)
	}
}

// encodeReports converts pending transitions to wire form relative to
// the packet transmission time. The returned slice is a per-node buffer
// reused on the next call; the network server decodes it immediately.
func (n *Node) encodeReports(packetAt simtime.Time, window simtime.Duration) []battery.Report {
	if len(n.pendingTrans) == 0 {
		return nil
	}
	if cap(n.reportBuf) < len(n.pendingTrans) {
		// The backlog is bounded (see drainReports), so one full-size
		// allocation serves the node for the rest of the run.
		n.reportBuf = make([]battery.Report, 0, cap(n.pendingTrans))
	}
	out := n.reportBuf[:0]
	for _, tr := range n.pendingTrans {
		out = append(out, battery.EncodeTransition(tr, packetAt, window))
	}
	n.reportBuf = out
	return out
}
