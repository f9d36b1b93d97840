package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// A request queued behind a slow response is late because of the
// daemon: only the time past the moment its connection became free
// counts as the generator's own lateness.
func TestGeneratorLateCountsOnlyTheGenerator(t *testing.T) {
	recs := []sendRec{
		{due: ms(0), sent: ms(0.1), done: ms(30)},                              // on time: 0.1 ms
		{due: ms(10), sent: ms(30), done: ms(31), status: http.StatusAccepted}, // waited for the connection: 0
		{due: ms(20), sent: ms(31.5), done: ms(32)},                            // 0.5 ms past the free connection
		{due: ms(50), sent: ms(53), done: ms(54)},                              // idle connection, sent 3 ms late
		{due: ms(60), sent: ms(59.9), done: ms(61)},                            // early never counts
	}
	want := []time.Duration{ms(0.1), 0, ms(0.5), ms(3), 0}
	got := generatorLate(recs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: lateness %v, want %v", i, got[i], want[i])
		}
	}
	if l := recs[1].latencyMs(); l != 21 {
		t.Errorf("latency is timed from the due time: got %v ms, want 21", l)
	}
}

func TestMaxSustainedRate(t *testing.T) {
	ok := func(step int, latMs float64) sendRec {
		return sendRec{due: 0, done: ms(latMs), status: http.StatusAccepted, step: step}
	}
	ingest := [][]sendRec{{ok(0, 1), ok(1, 2), ok(2, 3), ok(3, 4)}}
	flat := []float64{0, 0, 0, 0, 0}
	if got := maxSustainedRate(ingest, flat); got != lnsLadder[3].UplinksPerS {
		t.Errorf("every step healthy: got %v, want the top rate", got)
	}
	slow := [][]sendRec{{ok(0, 1), ok(1, 2), ok(2, 3), ok(3, 2*ingestP99LimitMs)}}
	if got := maxSustainedRate(slow, flat); got != lnsLadder[2].UplinksPerS {
		t.Errorf("top step over the p99 limit: got %v, want step 2's rate", got)
	}
	refused := [][]sendRec{{ok(0, 1), ok(1, 2), {step: 2, status: http.StatusTooManyRequests}, ok(3, 1)}}
	if got := maxSustainedRate(refused, flat); got != lnsLadder[3].UplinksPerS {
		t.Errorf("refusal only in step 2: got %v, want the top rate", got)
	}
	if refused[0][2].latencyMs() != missedMs {
		t.Error("a refused request must miss every latency limit")
	}
	growing := []float64{0, 0, 0, 0, 40}
	if got := maxSustainedRate(ingest, growing); got != lnsLadder[2].UplinksPerS {
		t.Errorf("queue grew across the top step: got %v, want step 2's rate", got)
	}
}

func TestTrafficDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 100k-node fleets")
	}
	a, err := genTraffic(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genTraffic(11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genTraffic(12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.registerBody, b.registerBody) || len(a.bodies) != len(b.bodies) {
		t.Fatal("same seed, different fleet")
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) || a.due[i] != b.due[i] {
			t.Fatalf("same seed, batch %d differs", i)
		}
	}
	if bytes.Equal(a.registerBody, c.registerBody) {
		t.Error("different seeds gave the same fleet")
	}

	if got, want := len(a.trace.Nodes), lnsNodes(); got != want || want < 100_000 {
		t.Errorf("fleet of %d nodes, want %d (at least 100k)", got, want)
	}
	blocks := map[int]bool{}
	for _, n := range a.trace.Nodes {
		blocks[n.ID/256] = true
	}
	if len(blocks) < 1000 {
		t.Errorf("node IDs cover %d ShardOf blocks, want at least 1000", len(blocks))
	}
	if len(a.publishes) < 100 {
		t.Errorf("%d publishes, want at least 100", len(a.publishes))
	}
	var uplinks int
	for _, bb := range a.batches {
		uplinks += len(bb.Uplinks)
	}
	if uplinks != lnsNodes() {
		t.Errorf("%d uplinks, want one per node", uplinks)
	}
	end := time.Duration(0)
	for _, s := range lnsLadder {
		end += time.Duration(s.Seconds * float64(time.Second))
	}
	if last := a.due[len(a.due)-1]; last >= end || last < end-100*time.Millisecond {
		t.Errorf("last batch due at %v, want just before the ladder ends at %v", last, end)
	}
}

// The open loop against a stub daemon: every batch is sent once, from
// its own connection, no earlier than due, and the control connection
// publishes at every boundary and samples every step edge.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[r.Method+" "+r.URL.Path+" "+string(body)]++
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/uplinks":
			w.WriteHeader(http.StatusAccepted)
		case "/v1/metrics":
			fmt.Fprintln(w, "kind,name,value\ngauge,lns.queue_depth,3")
		}
	}))
	defer srv.Close()

	tr := &lnsTraffic{edges: []time.Duration{0, ms(20), ms(40)}}
	for i := 0; i < 12; i++ {
		tr.bodies = append(tr.bodies, []byte(fmt.Sprintf(`{"batch":%d}`, i)))
		tr.due = append(tr.due, ms(float64(3*i)))
		tr.step = append(tr.step, i/6)
	}
	tr.publishes = []publish{{atMs: 3600000, due: ms(10)}, {atMs: 7200000, due: ms(25)}}
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	var depthCalls atomic.Int64
	ol := runOpenLoop(srv.URL, tr, 2, ctl, func() float64 { depthCalls.Add(1); return 7 })

	if ol.failed != 0 || len(ol.errors) != 0 {
		t.Fatalf("%d failed: %v", ol.failed, ol.errors)
	}
	if ol.posted != 12 || ol.ops != 12+2*2+3 {
		t.Errorf("posted %d, ops %d; want 12 and %d", ol.posted, ol.ops, 12+2*2+3)
	}
	for c, recs := range ol.ingest {
		if len(recs) != 6 {
			t.Errorf("connection %d sent %d batches, want 6", c, len(recs))
		}
		for _, r := range recs {
			if r.sent < r.due || r.done < r.sent {
				t.Errorf("connection %d: due %v sent %v done %v", c, r.due, r.sent, r.done)
			}
		}
	}
	for i := 0; i < 12; i++ {
		if n := seen[fmt.Sprintf(`POST /v1/uplinks {"batch":%d}`, i)]; n != 1 {
			t.Errorf("batch %d posted %d times", i, n)
		}
	}
	if seen[`POST /v1/recompute {"at_ms":3600000}`] != 1 || seen[`POST /v1/recompute {"at_ms":7200000}`] != 1 ||
		seen["GET /v1/wu "] != 2 || seen["GET /v1/metrics "] != 3 {
		t.Errorf("control requests: %v", seen)
	}
	if len(ol.depthAt) != 3 || ol.depthAt[2] != 3 {
		t.Errorf("queue depth at step edges %v, want three samples of 3", ol.depthAt)
	}
	if depthCalls.Load() != 12 || ol.queueDepthMax != 7 {
		t.Errorf("in-process depth read %d times, max %v; want 12 and 7", depthCalls.Load(), ol.queueDepthMax)
	}
}
