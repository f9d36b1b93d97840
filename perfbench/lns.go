package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/battery"
	"repro/internal/lns"
	"repro/internal/netserver"
	"repro/internal/simtime"
)

// The lns-ingest traffic: a fleet of gateways forwarding one uplink
// (eight piggy-backed SoC reports) per node, in 64-uplink batches, with
// node IDs scattered over four times as many IDs as nodes, so they
// cover thousands of lns.ShardOf blocks. Transitions fall on a
// 10-minute grid across ~100 recompute intervals of one simulated
// hour, so the stream crosses a recompute boundary about every 1000
// uplinks and the operator publishes w_u at each.
const (
	lnsSampleEvery   = 10 * simtime.Minute
	lnsInterval      = simtime.Hour
	lnsIntervals     = 100
	lnsReports       = 8
	lnsBatchUplinks  = 64
	lnsIDSpaceFactor = 4
)

// ladderStep is one offered rate of the open-loop ladder, held for a
// fixed time.
type ladderStep struct {
	UplinksPerS float64
	Seconds     float64
}

// lnsLadder is the fixed offered-rate ladder. The nominal step is the
// longest, so its latency percentiles rest on about a thousand
// requests; the top step probes headroom. The fleet has exactly as many
// nodes as the ladder offers uplinks.
var lnsLadder = []ladderStep{{2000, 3}, {4000, 3}, {8000, 8}, {16000, 1.5}}

const (
	lnsNominalStep = 2
	// ingestP99LimitMs is the latency limit a ladder step's p99 must
	// meet to count towards lns.ingest_max_ups.
	ingestP99LimitMs = 50.0
	// maxGeneratorLateMs flags a run whose generator itself fell behind
	// its schedule: its latencies do not measure the daemon.
	maxGeneratorLateMs = 10.0
	// missedMs stands for the latency of a refused or failed request,
	// which misses every limit.
	missedMs = 1e6
)

func lnsNodes() int {
	n := 0.0
	for _, s := range lnsLadder {
		n += s.UplinksPerS * s.Seconds
	}
	return int(n)
}

// lnsTraffic is the generated input of one lns-ingest run: the fleet
// trace, its batches in stream order with their encoded bodies, and
// the open-loop schedule.
type lnsTraffic struct {
	trace        *lns.Trace
	batches      []lns.Batch
	bodies       [][]byte
	registerBody []byte
	due          []time.Duration // per batch, from stream start
	step         []int           // per batch, ladder step index
	publishes    []publish       // recompute boundaries in stream order
	edges        []time.Duration // ladder step starts, then the ladder's end
	finalAt      simtime.Time
}

type publish struct {
	atMs int64
	due  time.Duration
}

// genTraffic builds the lns-ingest input for a seed. The same seed
// gives byte-identical traffic.
func genTraffic(seed uint64) (*lnsTraffic, error) {
	n := lnsNodes()
	rng := rand.New(rand.NewPCG(inputSeed("lns-ingest", seed), 0x6c6e73))
	ids := rng.Perm(lnsIDSpaceFactor * n)[:n]
	sort.Ints(ids)
	slots := int(lnsIntervals * lnsInterval / lnsSampleEvery)
	tr := &lns.Trace{SampleEvery: lnsSampleEvery}
	for _, id := range ids {
		soc := 0.3 + 0.6*rng.Float64()
		nt := lns.NodeTrace{ID: id, InitialSoC: soc, Transitions: make([]battery.Transition, 0, lnsReports)}
		first := simtime.Time(rng.IntN(slots)) * simtime.Time(lnsSampleEvery)
		for k := 1; k <= lnsReports; k++ {
			soc = min(0.95, max(0.05, soc+0.12*(rng.Float64()-0.5)))
			at := first + simtime.Time(k)*simtime.Time(lnsSampleEvery)
			nt.Transitions = append(nt.Transitions, battery.Transition{At: at, SoC: soc})
		}
		tr.Nodes = append(tr.Nodes, nt)
	}
	t := &lnsTraffic{trace: tr, batches: lns.BuildBatches(tr, lnsSampleEvery, lnsReports, lnsBatchUplinks)}

	reg := lns.RegisterReq{Nodes: make([]lns.RegisterNode, 0, n)}
	for _, nt := range tr.Nodes {
		reg.Nodes = append(reg.Nodes, lns.RegisterNode{Node: nt.ID, SoC: nt.InitialSoC})
	}
	var err error
	if t.registerBody, err = json.Marshal(reg); err != nil {
		return nil, err
	}
	pos := 0
	for _, b := range t.batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, body)
		due, step := ladderDue(pos)
		t.due = append(t.due, due)
		t.step = append(t.step, step)
		pos += len(b.Uplinks)
	}
	next := simtime.Time(lnsInterval)
	for i, b := range t.batches {
		for simtime.Time(b.Uplinks[0].AtMs) >= next {
			t.publishes = append(t.publishes, publish{atMs: int64(next), due: t.due[i]})
			next += simtime.Time(lnsInterval)
		}
	}
	var at float64
	for _, s := range lnsLadder {
		t.edges = append(t.edges, time.Duration(at*float64(time.Second)))
		at += s.Seconds
	}
	t.edges = append(t.edges, time.Duration(at*float64(time.Second)))
	t.finalAt = lns.LastUplinkAt(t.batches).Add(lnsInterval)
	return t, nil
}

// ladderDue maps a stream position (uplinks sent before) to its due
// time and ladder step.
func ladderDue(pos int) (time.Duration, int) {
	var start float64
	p := float64(pos)
	for k, s := range lnsLadder {
		n := s.UplinksPerS * s.Seconds
		if p < n || k == len(lnsLadder)-1 {
			return time.Duration((start + p/s.UplinksPerS) * float64(time.Second)), k
		}
		p -= n
		start += s.Seconds
	}
	panic("unreachable")
}

// lnsReference replays the traffic through the library path the daemon
// wraps — register, the set-up recompute at 0, every batch, the final
// recompute — and digests the w_u table and snapshot bytes the daemon
// must serve. Intermediate publishes do not change the final state:
// ingest never reads recompute state, and the final barrier recomputes
// every node at the final grid slot.
func lnsReference(seed uint64) (string, error) {
	t, err := genTraffic(seed)
	if err != nil {
		return "", err
	}
	s, err := netserver.New(battery.DefaultModel(), 25, lnsInterval)
	if err != nil {
		return "", err
	}
	lns.RegisterTrace(s, t.trace)
	lns.RecomputeBarrier(s, 0)
	for _, b := range t.batches {
		lns.ReplayBatch(s, b)
	}
	lns.RecomputeBarrier(s, t.finalAt)
	var wu, snap bytes.Buffer
	if err := lns.WriteWuTable(&wu, s.WuTable()); err != nil {
		return "", err
	}
	if err := json.NewEncoder(&snap).Encode(s.Snapshot()); err != nil {
		return "", err
	}
	return lnsDigest(wu.Bytes(), snap.Bytes()), nil
}

func lnsDigest(wu, snap []byte) string {
	h := newDigest()
	h.add("wu", wu)
	h.add("snapshot", snap)
	return h.sum()
}

func init() {
	register(workload{
		name:      "lns-ingest",
		full:      func(w *workerEnv) (*repResult, error) { return runLNS(w, true) },
		setup:     func(w *workerEnv) (*repResult, error) { return runLNS(w, false) },
		reference: lnsReference,
	})
}

// daemonHandle is a running daemon: a cmd/lnsd child process, or (on a
// traced run) lns.NewDaemon hosted in this process so the profiler sees
// its handler.
type daemonHandle struct {
	url string
	srv *http.Server
	d   *lns.Daemon

	cmd     *exec.Cmd
	log     *bytes.Buffer
	exited  chan struct{} // closed once the child process was reaped
	waitErr error         // its exit status, valid after exited
}

func startDaemon(w *workerEnv) (*daemonHandle, error) {
	shards := runtime.NumCPU()
	if w.traced {
		h := &daemonHandle{}
		var err error
		pprof.Do(w.ctx, pprof.Labels("side", "server"), func(context.Context) {
			h.d, err = lns.NewDaemon(lns.Config{Shards: shards, Interval: lnsInterval})
			if err != nil {
				return
			}
			var ln net.Listener
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				h.d.Close()
				return
			}
			h.url = "http://" + ln.Addr().String()
			h.srv = &http.Server{Handler: h.d.Handler()}
			// Serve returns once stop shuts the server down.
			go func() { _ = h.srv.Serve(ln) }()
		})
		return h, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	h := &daemonHandle{url: "http://127.0.0.1:" + port, log: &bytes.Buffer{}, exited: make(chan struct{})}
	h.cmd = exec.Command(filepath.Join(w.root, ".bench_build", "bin", "lnsd"),
		"-addr", "127.0.0.1:"+port, "-lns-shards", strconv.Itoa(shards), "-interval", lnsInterval.String())
	h.cmd.Stdout, h.cmd.Stderr = h.log, h.log
	// The daemon must not outlive a worker that dies mid-run.
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := h.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lnsd: %w", err)
	}
	go func() {
		h.waitErr = h.cmd.Wait()
		close(h.exited)
	}()
	return h, nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}

// waitHealthy polls /healthz until the daemon answers.
func (h *daemonHandle) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-h.exited: // nil (never ready) for the in-process daemon
			return fmt.Errorf("daemon exited before healthy: %v\n%s", h.waitErr, h.log)
		default:
		}
		if resp, err := c.Get(h.url + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy after 30s")
}

// stop shuts the daemon down and waits for it; for the child process it
// returns its peak RSS (MB) and CPU seconds.
func (h *daemonHandle) stop() (rssMB, cpuS float64, err error) {
	if h.cmd == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = h.srv.Shutdown(ctx)
		h.d.Close()
		return 0, 0, err
	}
	select {
	case <-h.exited:
		return 0, 0, fmt.Errorf("lnsd exited early: %v\n%s", h.waitErr, h.log)
	default:
	}
	if err := h.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	select {
	case <-h.exited:
		err = h.waitErr
	case <-time.After(10 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.exited
		err = fmt.Errorf("lnsd ignored SIGTERM (%v)", h.waitErr)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("lnsd: %v\n%s", err, h.log)
	}
	if ru, ok := h.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024, tvSeconds(ru.Utime) + tvSeconds(ru.Stime), nil
	}
	return 0, 0, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call issues one request and returns the status and body; a transport
// error is status 0.
func call(c *http.Client, method, url string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, data
}

// runLNS runs one lns-ingest repetition: set-up (daemon start to
// healthy, fleet registration, the recompute that anchors the grid),
// then, when full, the open-loop stream with its publishes and the
// final w_u table and snapshot. Input generation happens before the
// clock starts. Everything on the client side runs under a "side"
// profiler label, so a traced run tells the daemon's samples from the
// generator's.
func runLNS(w *workerEnv, full bool) (*repResult, error) {
	t, err := genTraffic(w.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	h, err := startDaemon(w)
	if err != nil {
		return nil, err
	}
	r := &repResult{}
	pprof.Do(w.ctx, pprof.Labels("side", "client"), func(ctx context.Context) {
		err = driveLNS(ctx, h, t, full, start, r)
	})
	rss, cpu, stopErr := h.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	r.PeakRSSMB, r.CPUS = rss, cpu
	return r, nil
}

func driveLNS(ctx context.Context, h *daemonHandle, t *lnsTraffic, full bool, start time.Time, r *repResult) error {
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	ok := func(status int, want int, what string) {
		r.Ops++
		if status != want {
			r.Failed++
			r.Errors = append(r.Errors, fmt.Sprintf("%s: status %d, want %d", what, status, want))
		}
	}
	var err error
	phase(ctx, "setup", func(context.Context) {
		if err = h.waitHealthy(ctl); err != nil {
			return
		}
		st, _ := call(ctl, "POST", h.url+"/v1/register", t.registerBody)
		ok(st, http.StatusOK, "register")
		st, _ = call(ctl, "POST", h.url+"/v1/recompute", recomputeBody(0))
		ok(st, http.StatusOK, "recompute at 0")
	})
	if err != nil {
		return err
	}
	r.SetupS = time.Since(start).Seconds()
	if !full {
		r.WallS = r.SetupS
		return nil
	}

	var wu, snap []byte
	var ol *openLoopResult
	phase(ctx, "run", func(context.Context) {
		var depth func() float64
		if h.d != nil {
			depth = h.d.Recorder().Gauge("lns.queue_depth").Value
		}
		ol = runOpenLoop(h.url, t, runtime.NumCPU(), ctl, depth)
		var st int
		st, _ = call(ctl, "POST", h.url+"/v1/recompute", recomputeBody(t.finalAt))
		ok(st, http.StatusOK, "final recompute")
		st, wu = call(ctl, "GET", h.url+"/v1/wu", nil)
		ok(st, http.StatusOK, "final wu")
		st, snap = call(ctl, "GET", h.url+"/v1/snapshot", nil)
		ok(st, http.StatusOK, "final snapshot")
	})
	r.WallS = time.Since(start).Seconds()
	st, metricsCSV := call(ctl, "GET", h.url+"/v1/metrics", nil)
	ok(st, http.StatusOK, "metrics")

	r.Ops += ol.ops
	r.Failed += ol.failed
	r.Errors = append(r.Errors, ol.errors...)
	r.Digest = lnsDigest(wu, snap)
	r.Specific = ol.specific()
	r.Counts, err = lnsCounts(metricsCSV, ol)
	return err
}

func recomputeBody(at simtime.Time) []byte {
	return []byte(fmt.Sprintf(`{"at_ms":%d}`, int64(at)))
}

// lnsCounts reads the daemon's counters from its /v1/metrics CSV.
func lnsCounts(csv []byte, ol *openLoopResult) (map[string]float64, error) {
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(csv))
	for sc.Scan() {
		parts := strings.Split(sc.Text(), ",")
		if len(parts) != 3 || parts[0] == "kind" {
			continue
		}
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("/v1/metrics line %q: %w", sc.Text(), err)
		}
		vals[parts[1]] = v
	}
	return map[string]float64{
		"netserver.packets":    vals["netserver.packets_ingested"],
		"netserver.reports":    vals["netserver.reports_ingested"],
		"netserver.recomputes": vals["netserver.recomputes"],
		"lns.ingest_busy_s":    vals["lns.ingest_ns_total"] / 1e9,
		"lns.recompute_ms":     ratio(vals["lns.recompute_ns_total"]/1e6, vals["lns.recomputes"]),
		"lns.queue_depth_max":  ol.queueDepthMax,
		"lns.refused_frac":     ratio(vals["lns.batches_rejected"], float64(ol.posted)),
	}, sc.Err()
}

// sendRec is one request of the open loop, times from stream start.
type sendRec struct {
	due, sent, done time.Duration
	status          int
	step            int
}

func (s sendRec) latencyMs() float64 {
	if s.status < 200 || s.status > 299 {
		return missedMs
	}
	return float64(s.done-s.due) / 1e6
}

type openLoopResult struct {
	ingest        [][]sendRec // per connection, in send order
	publishes     []sendRec
	depthAt       []float64 // lns.queue_depth at each ladder step edge
	queueDepthMax float64
	posted        int
	ops, failed   int
	errors        []string
}

// runOpenLoop replays the batches on schedule from conns connections
// (batch i on connection i mod conns), while the control connection
// publishes w_u at every recompute boundary on its own schedule and
// samples the queue depth at each ladder step edge. Nothing waits for
// the daemon to catch up except a connection's own previous request.
// depth, when non-nil, reads the queue depth in-process at every send.
func runOpenLoop(url string, t *lnsTraffic, conns int, ctl *http.Client, depth func() float64) *openLoopResult {
	res := &openLoopResult{ingest: make([][]sendRec, conns)}
	var mu sync.Mutex // guards queueDepthMax
	noteDepth := func() {
		if depth == nil {
			return
		}
		v := depth()
		mu.Lock()
		res.queueDepthMax = max(res.queueDepthMax, v)
		mu.Unlock()
	}
	start := time.Now()
	waitUntil := func(d time.Duration) {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := c; i < len(t.bodies); i += conns {
				waitUntil(t.due[i])
				rec := sendRec{due: t.due[i], sent: time.Since(start), step: t.step[i]}
				noteDepth()
				rec.status, _ = call(client, "POST", url+"/v1/uplinks", t.bodies[i])
				rec.done = time.Since(start)
				res.ingest[c] = append(res.ingest[c], rec)
			}
		}(c)
	}
	// The control connection interleaves publishes with the queue-depth
	// samples at step edges, each on its own schedule.
	edges := t.edges
	pi, ei := 0, 0
	for pi < len(t.publishes) || ei < len(edges) {
		if ei < len(edges) && (pi == len(t.publishes) || edges[ei] <= t.publishes[pi].due) {
			waitUntil(edges[ei])
			st, body := call(ctl, "GET", url+"/v1/metrics", nil)
			res.ops++
			if st != http.StatusOK {
				res.failed++
				res.errors = append(res.errors, fmt.Sprintf("metrics: status %d", st))
			}
			res.depthAt = append(res.depthAt, gaugeValue(body, "lns.queue_depth"))
			ei++
			continue
		}
		p := t.publishes[pi]
		waitUntil(p.due)
		rec := sendRec{due: p.due, sent: time.Since(start)}
		st, _ := call(ctl, "POST", url+"/v1/recompute", recomputeBody(simtime.Time(p.atMs)))
		if st == http.StatusOK {
			st, _ = call(ctl, "GET", url+"/v1/wu", nil)
		}
		rec.status, rec.done = st, time.Since(start)
		res.publishes = append(res.publishes, rec)
		pi++
	}
	wg.Wait()

	res.ops += 2 * len(res.publishes)
	for _, p := range res.publishes {
		if p.status != http.StatusOK {
			res.failed++
			res.errors = append(res.errors, fmt.Sprintf("publish at %v: status %d", p.due, p.status))
		}
	}
	for _, recs := range res.ingest {
		for _, r := range recs {
			res.posted++
			if r.status != http.StatusAccepted {
				res.failed++
				if len(res.errors) < 10 {
					res.errors = append(res.errors, fmt.Sprintf("uplinks at %v: status %d", r.due, r.status))
				}
			}
		}
	}
	res.ops += res.posted
	return res
}

// gaugeValue finds a gauge in a /v1/metrics CSV body (0 if absent).
func gaugeValue(csv []byte, name string) float64 {
	prefix := "gauge," + name + ","
	for _, line := range strings.Split(string(csv), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// generatorLate returns, for one connection's requests in send order,
// how late the generator itself sent each: the time past the later of
// its due time and the moment the connection became free. A request
// queued behind a slow response is late because of the daemon, and
// that wait belongs to its latency, not to the generator.
func generatorLate(recs []sendRec) []time.Duration {
	out := make([]time.Duration, len(recs))
	var free time.Duration
	for i, r := range recs {
		ready := max(r.due, free)
		if r.sent > ready {
			out[i] = r.sent - ready
		}
		free = r.done
	}
	return out
}

// maxSustainedRate is the highest ladder rate whose step met the p99
// limit with no refused request and no queue-depth growth from the
// step's start to its end (depthAt holds the edges, one more than
// steps).
func maxSustainedRate(ingest [][]sendRec, depthAt []float64) float64 {
	lat := make([][]float64, len(lnsLadder))
	refused := make([]bool, len(lnsLadder))
	for _, recs := range ingest {
		for _, r := range recs {
			lat[r.step] = append(lat[r.step], r.latencyMs())
			if r.status != http.StatusAccepted {
				refused[r.step] = true
			}
		}
	}
	best := 0.0
	for k, s := range lnsLadder {
		grew := k+1 < len(depthAt) && depthAt[k+1] > max(depthAt[k], 1)
		if len(lat[k]) > 0 && !refused[k] && !grew && quantile(lat[k], 0.99) <= ingestP99LimitMs {
			best = s.UplinksPerS
		}
	}
	return best
}

// specific summarizes the open loop: latency percentiles at the nominal
// rate, publish latency, the sustained rate and the generator's own
// lateness.
func (o *openLoopResult) specific() map[string]float64 {
	var nominal, late []float64
	for _, recs := range o.ingest {
		for i, l := range generatorLate(recs) {
			late = append(late, float64(l)/1e6)
			if recs[i].step == lnsNominalStep {
				nominal = append(nominal, recs[i].latencyMs())
			}
		}
	}
	pub := make([]float64, len(o.publishes))
	for i, p := range o.publishes {
		pub[i] = p.latencyMs()
	}
	return map[string]float64{
		"lns.ingest_p50_ms":     quantile(nominal, 0.5),
		"lns.ingest_p99_ms":     quantile(nominal, 0.99),
		"lns.ingest_samples":    float64(len(nominal)),
		"lns.ingest_max_ups":    maxSustainedRate(o.ingest, o.depthAt),
		"lns.wu_publish_p50_ms": quantile(pub, 0.5),
		"lns.wu_publish_p90_ms": quantile(pub, 0.9),
		"lns.wu_publishes":      float64(len(pub)),
		"loadgen.late_p99_ms":   quantile(late, 0.99),
	}
}
