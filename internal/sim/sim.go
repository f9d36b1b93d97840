package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/battery"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/mac"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/netserver"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/utility"
)

// Protocol timing constants (LoRaWAN class A).
const (
	// rx1Delay separates uplink end from the first receive window.
	rx1Delay = simtime.Second
	// rxWindowsSpan is how long a node listens after an uplink before
	// concluding no ACK will come (RX1 at +1 s, RX2 at +2 s plus window).
	rxWindowsSpan = 3 * simtime.Second
	// rxWindowSymbols approximates the open receive windows' listening
	// time in preamble symbols when no downlink arrives.
	rxWindowSymbols = 24
	// maxReportsPerPacket bounds the SoC transition reports piggy-backed
	// on one uplink.
	maxReportsPerPacket = 8
	// joinPayloadBytes is the LoRaWAN join-request size charged for the
	// rejoin exchange after a brownout.
	joinPayloadBytes = 23
)

// Hooks let experiments observe protocol internals without touching the
// metric pipeline. All hooks are optional.
type Hooks struct {
	// OnDecision fires for every generated packet after the MAC decided.
	OnDecision func(nodeID int, genAt simtime.Time, windows int, window int, drop bool)
	// OnPacketDone fires when a packet's fate is settled.
	OnPacketDone func(nodeID int, delivered bool, attempts int, window int)
	// OnMonth fires every 30 simulated days with the node set, letting
	// experiments sample degradation trajectories (Fig. 2/7).
	OnMonth func(now simtime.Time, nodes []*Node)
	// Obs receives counters, per-node timelines, and fault events. Nil
	// disables observability at zero hot-path cost.
	Obs *obs.Recorder
}

// NodeResult is one node's final accounting.
type NodeResult struct {
	ID          int
	DistanceM   float64
	SF          lora.SpreadingFactor
	Period      simtime.Duration
	CapacityJ   float64
	Stats       *metrics.NodeStats
	Degradation battery.Breakdown
	FinalSoC    float64
}

// Result is the outcome of one simulation run.
type Result struct {
	Label   string
	Elapsed simtime.Duration
	Nodes   []NodeResult
	// MonthlyMaxDeg records the network's maximum ground-truth capacity
	// fade at the end of every 30-day month (Fig. 7).
	MonthlyMaxDeg []float64
	// LifespanDays is the network battery lifespan: days until the first
	// battery reached EoL (0 when the run ended before that).
	LifespanDays float64
}

// Simulation wires a scenario together and runs it.
type Simulation struct {
	cfg    config.Scenario
	hooks  Hooks
	med    *Medium // the single-lane medium; sharded runs build per-cell media
	server *netserver.Server
	nodes  []*Node
	trace  *energy.YearTrace // shared weather trace; lanes batch per-day fills off it
	util   utility.Function
	gwPos  []radio.Position
	phy    *lora.Table  // memoized airtime/TX-energy per (SF, payload)
	plan   *faults.Plan // nil unless the scenario injects faults

	monthly      []float64
	lifespanDays float64

	// Execution lanes, built per run by setupLanes. shards are the
	// worker lanes (cells); coord owns global ticks and border nodes
	// (identical to shards[0] in single-lane runs); lanes is both for
	// iteration. gwShard maps gateway index to worker lane (nil in
	// single-lane runs).
	shards        []*shard
	coord         *shard
	lanes         []*shard
	gwShard       []int
	shardsUsed    int
	stopped       bool
	stopAt        simtime.Time
	borderDecoded []int // coordinator's merge buffer for border uplinks

	// Observability; obs is nil (and the counters no-ops) unless
	// Hooks.Obs was set.
	obs              *obs.Recorder
	cBrownouts       *obs.Counter
	cLostOutage      *obs.Counter
	cDroppedBackhaul *obs.Counter
	cDuplicated      *obs.Counter
	cDownlinkDropped *obs.Counter
}

// New builds a simulation from a validated scenario.
func New(cfg config.Scenario, hooks Hooks) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trace, err := energy.NewYearTrace(cfg.Solar)
	if err != nil {
		return nil, err
	}
	server, err := netserver.New(cfg.BatteryModel, cfg.BatteryTempC, cfg.DegradationInterval)
	if err != nil {
		return nil, err
	}
	// All nodes share bandwidth, coding rate, preamble and TX power; only
	// SF and payload vary per attempt, so one lookup table covers every
	// airtime/energy query of the run. attemptSpan's 64-byte worst case
	// bounds the payload range alongside data + piggy-backed reports.
	base := lora.DefaultParams()
	base.TxPowerDBm = cfg.TxPowerDBm
	maxPayload := max(cfg.PayloadBytes+battery.ReportSize*maxReportsPerPacket,
		cfg.AckPayloadBytes, 64)
	phy, err := lora.NewTable(base, maxPayload)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:    cfg,
		hooks:  hooks,
		med:    NewMedium(lora.BW125, cfg.Demodulators, cfg.Gateways),
		server: server,
		trace:  trace,
		util:   utility.Linear{},
		gwPos:  radio.GatewayLayout(cfg.Gateways, cfg.MaxDistanceM),
		phy:    phy,
		obs:    hooks.Obs,
	}
	s.obs.SetupNodes(cfg.Nodes)
	s.med.SetObserver(s.obs)
	s.server.SetObserver(s.obs)
	if s.obs.Enabled() {
		s.cBrownouts = s.obs.Counter("sim.brownouts")
		s.cLostOutage = s.obs.Counter("sim.uplinks_lost_outage")
		s.cDroppedBackhaul = s.obs.Counter("sim.uplinks_dropped_backhaul")
		s.cDuplicated = s.obs.Counter("sim.uplinks_duplicated")
		s.cDownlinkDropped = s.obs.Counter("sim.downlinks_dropped")
	}
	if cfg.Faults.Active() {
		if s.plan, err = faults.NewPlan(cfg.Faults, cfg.Seed, cfg.Nodes); err != nil {
			return nil, err
		}
	}
	// Construction slabs: the per-node EWMA profiles (~13 KB each) and
	// the solar sources' rolling day caches (~11.5 KB each) all live
	// exactly as long as the simulation, so they are carved out of two
	// contiguous banks instead of thousands of individual allocations —
	// same bytes, far less allocator and GC traffic at construction.
	var ewmaBank []energy.DiurnalEWMA
	if cfg.Forecast != config.ForecastPerfect && cfg.Forecast != config.ForecastNoisy {
		ewmaBank = energy.NewDiurnalEWMABank(0.3, cfg.Nodes)
	}
	minuteSlab := make([]float64, cfg.Nodes*minutesPerDay)
	for id := 0; id < cfg.Nodes; id++ {
		var ew *energy.DiurnalEWMA
		if ewmaBank != nil {
			ew = &ewmaBank[id]
		}
		lo, hi := id*minutesPerDay, (id+1)*minutesPerDay
		n, err := s.buildNode(id, trace, ew, minuteSlab[lo:hi:hi])
		if err != nil {
			return nil, fmt.Errorf("sim: node %d: %w", id, err)
		}
		s.nodes = append(s.nodes, n)
		server.Register(id, cfg.InitialSoC)
	}
	attachCore(s.nodes)
	return s, nil
}

// buildNode constructs one node: placement, SF assignment, battery
// sizing, energy source, forecaster, and protocol instance. ewma (may
// be nil) and minuteBuf are this node's views into the construction
// slabs New carved out; a nil ewma falls back to a solo allocation.
func (s *Simulation) buildNode(id int, trace *energy.YearTrace, ewma *energy.DiurnalEWMA, minuteBuf []float64) (*Node, error) {
	cfg := s.cfg
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(id)+0x4ead))

	// Placement: uniform over the disk, resampled until the link budget
	// closes to at least one gateway (the paper assumes every node is
	// reachable).
	var pos radio.Position
	var sf lora.SpreadingFactor
	var rxPerGW []float64
	for try := 0; ; try++ {
		r := cfg.MaxDistanceM * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		pos = radio.Position{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
		rxPerGW = s.rxPowers(pos, id)
		if cfg.FixedSF != 0 {
			sf = cfg.FixedSF
			break
		}
		var ok bool
		if sf, ok = radio.AssignSF(mathx.MaxOf(rxPerGW), cfg.SFMarginDB, lora.BW125); ok {
			break
		}
		if try >= 100 {
			// Pathological shadowing draw: pin the node near the gateway.
			pos = radio.Position{X: 100}
			rxPerGW = s.rxPowers(pos, id)
			sf, _ = radio.AssignSF(mathx.MaxOf(rxPerGW), cfg.SFMarginDB, lora.BW125)
			break
		}
	}

	params := lora.DefaultParams()
	params.SF = sf
	params.TxPowerDBm = cfg.TxPowerDBm
	if err := params.Validate(); err != nil {
		return nil, err
	}

	// Sampling period, snapped to whole forecast windows.
	span := int64(cfg.PeriodMax-cfg.PeriodMin) + 1
	period := cfg.PeriodMin + simtime.Duration(rng.Int64N(span))
	windows := int(period / cfg.ForecastWindow)
	period = simtime.Duration(windows) * cfg.ForecastWindow

	// Reference energies: one attempt carrying the base payload plus a
	// typical two-report piggyback.
	refPayload := cfg.PayloadBytes + 2*battery.ReportSize
	txE := params.TxEnergy(refPayload)
	rxE := lora.RxPower() * float64(rxWindowSymbols) * params.SymbolTime()
	ackAirtime := params.Airtime(cfg.AckPayloadBytes)

	// Battery sizing: 24 h of autonomous operation (Sec. II-C) unless
	// the scenario pins a capacity.
	capacity := cfg.BatteryCapacityJ
	if capacity == 0 {
		perDay := simtime.Day.Seconds() / period.Seconds()
		capacity = cfg.SleepPowerW*simtime.Day.Seconds() + perDay*cfg.BatterySizingAttempts*(txE+rxE)
	}
	var store battery.Store
	batt, err := battery.New(cfg.BatteryModel, capacity, cfg.InitialSoC, cfg.BatteryTempC)
	if err != nil {
		return nil, err
	}
	store = batt
	if cfg.SupercapJ > 0 {
		if store, err = battery.NewHybrid(batt, cfg.SupercapJ, cfg.SupercapLeakW); err != nil {
			return nil, err
		}
	}

	// Panel sizing: peak generation funds PanelPeakMultiple transmissions
	// per forecast window (Sec. II-C), floored so that a day of sun also
	// covers the always-on sleep draw — low-SF nodes transmit so cheaply
	// that the paper's TX-based rule alone would starve them.
	peakW := max(energy.PeakPowerFor(txE, cfg.ForecastWindow, cfg.PanelPeakMultiple), 10*cfg.SleepPowerW)
	src := trace.NodeSource(id, peakW, cfg.SolarVariation)
	if minuteBuf != nil {
		// Attach before any priming so the source's lazy day cache lands
		// in the slab rather than allocating its own backing store.
		if ms, ok := src.(interface{ SetMinuteBuf([]float64) }); ok {
			ms.SetMinuteBuf(minuteBuf)
		}
	}

	var fc energy.Forecaster
	switch cfg.Forecast {
	case config.ForecastPerfect:
		fc = &energy.Perfect{Source: src}
	case config.ForecastNoisy:
		fc = energy.NewNoisy(src, cfg.ForecastNoise, cfg.Seed^uint64(id)*0x9e37)
	default:
		if ewma == nil {
			ewma = energy.NewDiurnalEWMA(0.3)
		}
		ewma.Prime(src, cfg.ForecastPrimeDays)
		fc = ewma
	}

	var proto mac.Protocol
	switch cfg.Protocol {
	case config.ProtocolLoRaWAN:
		proto = mac.ALOHA{}
	case config.ProtocolThetaOnly:
		if proto, err = mac.NewThetaOnly(cfg.Theta); err != nil {
			return nil, err
		}
	default:
		if proto, err = mac.NewBLA(mac.BLAConfig{
			Theta:              cfg.Theta,
			WeightB:            cfg.WeightB,
			Beta:               cfg.Beta,
			Utility:            cfg.Utility,
			Forecaster:         fc,
			Window:             cfg.ForecastWindow,
			MaxWindows:         int(cfg.PeriodMax / cfg.ForecastWindow),
			SingleTxEnergyJ:    txE,
			MaxAttempts:        cfg.MaxAttempts,
			DisableRetxHistory: cfg.DisableRetxHistory,
			WuTTL:              cfg.Faults.WuTTL,
			WuStaleFallback:    cfg.Faults.WuStaleFallback,
			Obs:                s.obs.Node(id),
		}); err != nil {
			return nil, err
		}
	}
	store.SetChargeLimit(proto.Theta())

	// The solar substrate answers per-minute queries O(1) from its day
	// cache; the integrator uses that path directly when available, and
	// feeds whole-minute observations straight into the EWMA profile slot.
	srcMin, _ := src.(energy.MinuteSource)
	fcEWMA, _ := fc.(*energy.DiurnalEWMA)

	return &Node{
		ID:         id,
		Pos:        pos,
		rxPowerDBm: rxPerGW,
		DistanceM:  pos.DistanceTo(radio.Position{}),
		Params:     params,
		Period:     period,
		Windows:    windows,
		CapacityJ:  capacity,
		Proto:      proto,
		Batt:       store,
		Stats:      metrics.NewNodeStats(),
		src:        src,
		srcMin:     srcMin,
		fc:         fc,
		fcEWMA:     fcEWMA,
		rng:        rng,
		sleepW:     cfg.SleepPowerW,
		rxEnergyJ:  rxE,
		ackAirtime: ackAirtime,
		span:       params.Airtime(64) + rxWindowsSpan + 3*simtime.Second,
		obsTL:      s.obs.Node(id),
	}, nil
}

// Nodes exposes the node set for experiment probes.
func (s *Simulation) Nodes() []*Node { return s.nodes }

// ShardsUsed reports the effective shard count of the last run (for
// invocation manifests); zero before the first run.
func (s *Simulation) ShardsUsed() int { return s.shardsUsed }

// Run executes the scenario single-lane (the legacy engine) and
// returns the result.
func (s *Simulation) Run() (*Result, error) {
	return s.RunOpt(RunOptions{Shards: 1})
}

// RunOpt executes the scenario with the given execution options. The
// result is byte-identical at every (workers, shards) combination.
func (s *Simulation) RunOpt(opt RunOptions) (*Result, error) {
	cfg := s.cfg
	horizon := cfg.Duration
	if cfg.RunToEoL {
		horizon = cfg.MaxDuration
	}

	s.setupLanes(s.resolveShards(opt))

	for _, n := range s.nodes {
		n.owner.schedule(s.firstGenerate(n), evGenerate, n, nil, nil, nil, 0, 0)
		if at, ok := s.plan.NextBrownout(n.ID, 0); ok {
			n.owner.schedule(at, evBrownout, n, nil, nil, nil, 0, 0)
		}
	}
	s.coord.schedule(0, evDaily, nil, nil, nil, nil, 0, 0)
	s.coord.schedule(simtime.Time(30*simtime.Day), evMonthly, nil, nil, nil, nil, 0, 0)
	if s.obs.Enabled() {
		s.coord.schedule(0, evObsSample, nil, nil, nil, nil, 0, 0)
	}

	if len(s.lanes) == 1 {
		s.lanes[0].eng.Run(simtime.Time(horizon))
	} else {
		s.runSharded(simtime.Time(horizon), runner.Workers(opt.Workers))
	}

	now := simtime.Time(horizon)
	if s.stopped {
		now = s.stopAt
	}
	res := s.collect(now)
	if s.obs.Enabled() {
		// The schedule/execute totals are summed across lanes: the event
		// multiset is shard-invariant, so the sums match the single-heap
		// counters exactly.
		var scheduled, executed uint64
		for _, ln := range s.lanes {
			scheduled += ln.eng.Scheduled()
			executed += ln.eng.Executed()
		}
		s.obs.Counter("engine.events_scheduled").Store(int64(scheduled))
		s.obs.Counter("engine.events_executed").Store(int64(executed))
	}
	return res, nil
}

// firstGenerate draws the node's first sampling instant, spread over
// StartSpread (one period when unset).
func (s *Simulation) firstGenerate(n *Node) simtime.Time {
	spread := s.cfg.StartSpread
	if spread == 0 {
		spread = n.Period
	}
	return simtime.Time(n.rng.Int64N(int64(spread)))
}

// collect settles every node's energy at now and gathers the run's
// result.
func (s *Simulation) collect(now simtime.Time) *Result {
	res := &Result{
		Label:         s.cfg.ProtocolLabel(),
		Elapsed:       simtime.Duration(now),
		MonthlyMaxDeg: s.monthly,
		LifespanDays:  s.lifespanDays,
	}
	for _, n := range s.nodes {
		n.integrate(now)
		if bla, ok := n.Proto.(*mac.BLA); ok {
			n.Stats.StaleWuDecisions = bla.StaleDecisions()
		}
		res.Nodes = append(res.Nodes, NodeResult{
			ID:          n.ID,
			DistanceM:   n.DistanceM,
			SF:          n.Params.SF,
			Period:      n.Period,
			CapacityJ:   n.CapacityJ,
			Stats:       n.Stats,
			Degradation: n.Batt.Damage(now),
			FinalSoC:    n.Batt.SoC(),
		})
	}
	return res
}

// obsSample records every node's timeline row at the current instant and
// reschedules itself. Sampling is read-only — Damage and SoC are pure
// accessors and no energy integration runs — so enabling observability
// cannot perturb the simulation: RNG streams, event order, and all
// results stay byte-identical to an unobserved run.
//
// Scheduling rule (DESIGN.md §5e): obs sampling lives on the
// coordinator lane, always — the t=0 seed in RunOpt and the reschedule
// below both target s.coord explicitly, so the sample cadence is
// k·SampleEvery at any shard count and the worker lanes never carry
// sampling events. (sh == s.coord whenever this handler runs; the
// explicit target keeps that an invariant rather than an accident.)
// The per-interval wakeups do not defeat the nodes' idle-span skip:
// they wake only the coordinator, never a node — no integration, no
// per-node events.
func (sh *shard) obsSample() {
	s := sh.s
	now := sh.eng.Now()
	for _, n := range s.nodes {
		n.sample(now)
	}
	s.coord.schedule(now.Add(s.obs.SampleEvery()), evObsSample, nil, nil, nil, nil, 0, 0)
}

// dailyTick runs the gateway's daily degradation recomputation and the
// EoL stop condition, on the coordinator lane.
func (sh *shard) dailyTick() {
	s := sh.s
	now := sh.eng.Now()
	s.recompute(now)
	if s.cfg.RunToEoL && s.maxGroundTruthDeg(now) >= s.cfg.BatteryModel.EoLThreshold {
		s.lifespanDays = now.Days()
		s.halt(now)
		return
	}
	sh.schedule(now.Add(simtime.Day), evDaily, nil, nil, nil, nil, 0, 0)
}

// recompute runs the network server's degradation recomputation if it
// is due. An offline gateway misses its slot; the grid-aligned schedule
// catches up on the first tick after the outage ends.
func (s *Simulation) recompute(now simtime.Time) {
	if !s.plan.GatewayDown(now) {
		s.server.RecomputeIfDue(now)
	}
}

func (sh *shard) monthlyTick() {
	s := sh.s
	now := sh.eng.Now()
	s.monthly = append(s.monthly, s.maxGroundTruthDeg(now))
	if s.hooks.OnMonth != nil {
		s.hooks.OnMonth(now, s.nodes)
	}
	sh.schedule(now.Add(30*simtime.Day), evMonthly, nil, nil, nil, nil, 0, 0)
}

func (s *Simulation) maxGroundTruthDeg(now simtime.Time) float64 {
	var maxDeg float64
	for _, n := range s.nodes {
		maxDeg = math.Max(maxDeg, n.Batt.Degradation(now))
	}
	return maxDeg
}

// The packet lifecycle is split into steps and scheduling. A step is
// node- or server-side work at one instant that schedules nothing:
// decide, startAttempt, energyRetry, deliver, backoff, acked, settle and
// restart. The event handlers below (generate, attempt, txEnd,
// ackDelivered, brownout, finish) schedule around the steps; the
// goroutine driver of RunConcurrent sleeps between them instead.

// generate handles one packet generation at a node: abort any stale
// in-flight packet, run the MAC decision, and schedule the transmission
// attempt and the next generation. It runs on the node's owner lane,
// like every other per-node handler.
func (sh *shard) generate(n *Node) {
	now := sh.eng.Now()
	n.integrate(now)

	if n.pkt != nil && !n.pkt.finished {
		sh.finish(n, n.pkt, false, now)
	}
	if window, at, send := sh.s.decide(n, now); send {
		pkt := sh.newPacket().open(n, now, window)
		sh.schedule(at, evAttempt, n, pkt, nil, nil, 0, 0)
	}
	sh.schedule(now.Add(n.Period), evGenerate, n, nil, nil, nil, 0, 0)
}

// decide runs the MAC decision for the packet generated at now. A drop
// is settled on the spot; otherwise decide returns the chosen window
// and the instant of the first attempt, spread inside the window when
// the protocol asks for it.
func (s *Simulation) decide(n *Node, now simtime.Time) (window int, at simtime.Time, send bool) {
	n.Stats.Generated++
	dec := n.Proto.DecideTx(now, n.Windows, n.Batt.Stored())
	n.obsTL.Decision(dec.Window, dec.Drop)
	if s.hooks.OnDecision != nil {
		s.hooks.OnDecision(n.ID, now, n.Windows, dec.Window, dec.Drop)
	}

	if dec.Drop {
		n.Stats.NeverSent++
		n.Stats.Dropped++
		n.Stats.LatencyPenalized += n.Period
		if s.hooks.OnPacketDone != nil {
			s.hooks.OnPacketDone(n.ID, false, 0, -1)
		}
		return 0, 0, false
	}
	window = mathx.ClampInt(dec.Window, 0, n.Windows-1)
	n.Stats.WindowHist.Add(window)
	var offset simtime.Duration
	if dec.SpreadInWindow {
		if spread := s.cfg.ForecastWindow - n.span; spread > 0 {
			offset = simtime.Duration(n.rng.Int64N(int64(spread)))
		}
	}
	return window, now.Add(simtime.Duration(window)*s.cfg.ForecastWindow + offset), true
}

// attempt transmits (or re-transmits) the packet if the battery can fund
// it, deferring window by window otherwise. gen is the packet life the
// triggering event was scheduled for; a mismatch means the packet was
// recycled since.
func (sh *shard) attempt(n *Node, pkt *packet, gen uint64) {
	if pkt.gen != gen || pkt.finished || n.pkt != pkt {
		return
	}
	s := sh.s
	now := sh.eng.Now()
	n.integrate(now)

	sf, end, ok := s.startAttempt(n, pkt, now)
	if !ok {
		if retry, ok := s.energyRetry(n, pkt, now); ok {
			sh.schedule(retry, evAttempt, n, pkt, nil, nil, 0, 0)
		} else {
			sh.finish(n, pkt, false, now)
		}
		return
	}
	tx, btx := sh.beginUplink(n, sf, now, end)
	sh.schedule(end, evTxEnd, n, pkt, tx, btx, 0, 0)
}

// startAttempt sizes the packet's next attempt — the newest pending
// reports that fit, at the back-off SF — and, if the battery can fund
// the transmission plus the receive windows, charges the transmission.
// It returns the attempt's SF and end of airtime, or false when the
// battery cannot fund it.
func (s *Simulation) startAttempt(n *Node, pkt *packet, now simtime.Time) (lora.SpreadingFactor, simtime.Time, bool) {
	n.drainReports()
	reports := min(len(n.pendingTrans), maxReportsPerPacket)
	payload := s.cfg.PayloadBytes + battery.ReportSize*reports
	sf := n.paramsForAttempt(pkt.attempts).SF
	txE := s.phy.TxEnergy(sf, payload)
	if !n.Batt.CanSupply(txE + n.rxEnergyJ) {
		return 0, 0, false
	}

	pkt.attempts++
	n.Stats.Attempts++
	n.draw(txE)
	pkt.radioEnergyJ += txE
	n.Stats.TxEnergyJ += txE
	return sf, now.Add(s.phy.Airtime(sf, payload)), true
}

// energyRetry defers an attempt the battery cannot fund by one forecast
// window, waiting for harvest. It reports false when the deferred
// attempt could no longer finish before the packet's deadline.
func (s *Simulation) energyRetry(n *Node, pkt *packet, now simtime.Time) (simtime.Time, bool) {
	retry := now.Add(s.cfg.ForecastWindow)
	return retry, !retry.Add(n.span).After(pkt.deadline)
}

// beginUplink registers the node's uplink in the medium: one masked
// clone per audible cell for a border node, a single transmission
// otherwise.
func (sh *shard) beginUplink(n *Node, sf lora.SpreadingFactor, start, end simtime.Time) (*Transmission, *borderTx) {
	ch := n.ID % sh.s.cfg.Channels
	if n.borderPow != nil {
		return nil, sh.beginBorderUplink(n, ch, sf, start, end)
	}
	tx := sh.med.NewTransmission()
	tx.NodeID = n.ID
	tx.Channel = ch
	tx.SF = sf
	tx.PowerDBm = n.rxPowerDBm
	tx.Start = start
	tx.End = end
	sh.med.BeginUplink(tx)
	return tx, nil
}

// endUplink releases the uplink from the medium and returns the
// gateways that decoded it, strongest first.
func (sh *shard) endUplink(n *Node, tx *Transmission, btx *borderTx) []int {
	if btx != nil {
		return sh.endBorderUplink(n, btx)
	}
	return sh.med.EndUplink(tx)
}

// txEnd resolves one transmission attempt: gateway decoding, ACK
// scheduling, or retransmission. The medium is released first in
// every path (it only touches radio state, which commutes with the
// node-side accounting below), so stale and live packets share it.
func (sh *shard) txEnd(n *Node, pkt *packet, gen uint64, tx *Transmission, btx *borderTx) {
	s := sh.s
	gws := sh.endUplink(n, tx, btx)
	if pkt.gen != gen || pkt.finished || n.pkt != pkt {
		return
	}
	now := sh.eng.Now()
	n.integrate(now)

	if gw, ackEnd, ok := s.deliver(n, pkt, gws, now); ok {
		// The downlink runs on the lane owning the gateway's radio (this
		// lane for interior nodes; possibly another worker lane when the
		// coordinator resolves a border uplink — always strictly in the
		// future, so the barrier loop picks it up).
		s.laneForGW(gw).schedule(now.Add(rx1Delay), evDownlink, nil, nil, nil, nil, gw, ackEnd)
		sh.schedule(ackEnd, evAckDone, n, pkt, nil, nil, 0, 0)
		return
	}
	if retry, ok := s.backoff(n, pkt, now); ok {
		sh.schedule(retry, evAttempt, n, pkt, nil, nil, 0, 0)
	} else {
		sh.finish(n, pkt, false, now)
	}
}

// deliver resolves an attempt whose airtime ended at now. The node pays
// for its receive windows. An uplink some gateway decoded (gws,
// strongest first) then passes the control-plane fault switch, is
// ingested by the network server, and gets an ACK slot at rx1 on the
// first decoding gateway whose radio is free. deliver returns that
// gateway and the ACK's end, or false when no ACK will come.
func (s *Simulation) deliver(n *Node, pkt *packet, gws []int, now simtime.Time) (gw int, ackEnd simtime.Time, ok bool) {
	// Receive windows cost energy whether or not an ACK arrives.
	n.draw(n.rxEnergyJ)
	pkt.radioEnergyJ += n.rxEnergyJ
	if len(gws) == 0 {
		return 0, 0, false
	}

	// The switch mirrors the original short-circuit chain exactly:
	// GatewayDown draws no randomness and DropUplink is only consulted
	// when the gateway is up, so per-node RNG streams are identical
	// with observability on or off.
	switch {
	case s.plan.GatewayDown(now):
		s.cLostOutage.Inc()
		n.obsTL.RecordEvent(now, "uplink_lost_outage")
		return 0, 0, false
	case s.plan.DropUplink(n.ID):
		s.cDroppedBackhaul.Inc()
		n.obsTL.RecordEvent(now, "uplink_dropped_backhaul")
		return 0, 0, false
	}
	reports := n.encodeReports(now, s.cfg.ForecastWindow)
	s.server.Ingest(n.ID, reports, now, s.cfg.ForecastWindow)
	if s.plan.DuplicateUplink(n.ID) {
		// Backhaul duplication: the server sees the same packet twice;
		// idempotent ingestion makes the second delivery a no-op.
		s.cDuplicated.Inc()
		s.server.Ingest(n.ID, reports, now, s.cfg.ForecastWindow)
	}
	if s.plan.DropDownlink(n.ID) {
		// A dropped downlink looks the same from the node: no ACK, so it
		// retries with the reports still piggy-backed (and the server's
		// duplicate guard drops the re-ingested copies).
		s.cDownlinkDropped.Inc()
		n.obsTL.RecordEvent(now, "downlink_dropped")
		return 0, 0, false
	}
	rx1 := now.Add(rx1Delay)
	ackEnd = rx1.Add(n.ackAirtime)
	for _, g := range gws {
		if s.laneForGW(g).med.ReserveDownlink(g, rx1, ackEnd) {
			return g, ackEnd, true
		}
	}
	// Every decoding gateway's radio is busy: the data arrived but the
	// node will never know — it behaves exactly like a collision.
	return 0, 0, false
}

// backoff schedules the retransmission after an unacknowledged attempt:
// the receive windows plus a random back-off. It reports false when the
// attempt budget is spent or the retry would miss the deadline.
func (s *Simulation) backoff(n *Node, pkt *packet, now simtime.Time) (simtime.Time, bool) {
	if pkt.attempts >= s.cfg.MaxAttempts {
		return 0, false
	}
	backoff := 500*simtime.Millisecond + simtime.Duration(n.rng.Int64N(int64(2*simtime.Second)))
	retry := now.Add(rxWindowsSpan + backoff)
	return retry, !retry.After(pkt.deadline)
}

// ackDelivered completes a packet whose ACK window closed with the ACK
// decoded.
func (sh *shard) ackDelivered(n *Node, pkt *packet, gen uint64) {
	if pkt.gen != gen || pkt.finished || n.pkt != pkt {
		return
	}
	now := sh.eng.Now()
	n.integrate(now)
	sh.s.acked(n, pkt, now)
	sh.releasePacket(pkt)
}

// acked settles a delivered packet: the ACK carries the gateway's
// latest normalized degradation for this node, and the piggy-backed
// reports are off the node's hands.
func (s *Simulation) acked(n *Node, pkt *packet, now simtime.Time) {
	n.Proto.OnDegradationUpdate(now, s.server.NormalizedDegradation(n.ID))
	n.pendingTrans = n.pendingTrans[:0]
	s.settle(n, pkt, true, now)
}

// finish settles a packet's fate and returns it to the lane's pool.
func (sh *shard) finish(n *Node, pkt *packet, delivered bool, now simtime.Time) {
	sh.s.settle(n, pkt, delivered, now)
	sh.releasePacket(pkt)
}

// settle closes a packet's life and updates metrics and protocol
// learning.
func (s *Simulation) settle(n *Node, pkt *packet, delivered bool, now simtime.Time) {
	pkt.finished = true
	n.pkt = nil

	if delivered {
		n.Stats.Delivered++
		lat := now.Sub(pkt.genAt)
		n.Stats.LatencyDelivered += lat
		n.Stats.LatencyPenalized += lat
		n.Stats.UtilitySum += s.util.Value(pkt.window, n.Windows)
	} else {
		n.Stats.Dropped++
		n.Stats.LatencyPenalized += n.Period
	}
	if pkt.attempts > 0 {
		n.Proto.OnOutcome(mac.Outcome{
			Window:    pkt.window,
			Attempts:  pkt.attempts,
			EnergyJ:   pkt.radioEnergyJ,
			Delivered: delivered,
		})
	}
	n.obsTL.PacketDone(delivered, pkt.attempts)
	if s.hooks.OnPacketDone != nil {
		s.hooks.OnPacketDone(n.ID, delivered, pkt.attempts, pkt.window)
	}
}

// brownout restarts a node: any in-flight packet dies, the node reboots
// (restart), and its next brownout is drawn.
func (sh *shard) brownout(n *Node) {
	s := sh.s
	now := sh.eng.Now()
	n.integrate(now)

	if n.pkt != nil && !n.pkt.finished {
		sh.finish(n, n.pkt, false, now)
	}
	s.restart(n, now)
	// The sampling timer restarts with the generation cycle already
	// scheduled; modelling a reboot-time phase shift would desynchronize
	// the pooled generate events for marginal realism.
	if at, ok := s.plan.NextBrownout(n.ID, now); ok {
		sh.schedule(at, evBrownout, n, nil, nil, nil, 0, 0)
	}
}

// restart reboots a browned-out node: the protocol's volatile state
// (w_u, learned estimators) and the unreported transition backlog are
// lost, the node pays for the rejoin exchange, and the network server
// re-admits it through Rejoin, keeping its accumulated degradation
// history.
func (s *Simulation) restart(n *Node, now simtime.Time) {
	n.Proto.Reset()
	n.pendingTrans = n.pendingTrans[:0]
	n.transBuf = n.Batt.AppendTransitions(n.transBuf[:0]) // recorded but never reported: gone
	n.Stats.Brownouts++
	s.cBrownouts.Inc()
	n.obsTL.RecordEvent(now, "brownout")

	// Rejoin exchange: one uplink at the node's base settings plus the
	// receive windows for the join accept.
	joinE := s.phy.TxEnergy(n.Params.SF, joinPayloadBytes) + n.rxEnergyJ
	n.draw(joinE)
	n.Stats.TxEnergyJ += joinE
	s.server.Rejoin(n.ID, n.Batt.SoC())
}

// rxPowers computes the node's static received power at every gateway.
func (s *Simulation) rxPowers(pos radio.Position, id int) []float64 {
	out := make([]float64, len(s.gwPos))
	for g, gp := range s.gwPos {
		out[g] = s.cfg.PathLoss.RxPowerBetweenDBm(s.cfg.TxPowerDBm, pos, gp, uint64(id)*131+uint64(g))
	}
	return out
}
