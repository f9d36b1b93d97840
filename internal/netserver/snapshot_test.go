package netserver

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/battery"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestQuantizeWuNaN: Go's float-to-integer conversion of NaN is
// implementation-defined, so a NaN degradation ratio (e.g. from a
// malformed ingested report) must clamp to 0 explicitly, not map to an
// arbitrary byte.
func TestQuantizeWuNaN(t *testing.T) {
	if got := QuantizeWu(math.NaN()); got != 0 {
		t.Errorf("QuantizeWu(NaN) = %d, want 0", got)
	}
	if got := QuantizeWu(math.Inf(1)); got != 255 {
		t.Errorf("QuantizeWu(+Inf) = %d, want 255 (clamped)", got)
	}
	if got := QuantizeWu(math.Inf(-1)); got != 0 {
		t.Errorf("QuantizeWu(-Inf) = %d, want 0 (clamped)", got)
	}
}

// TestMaxDegradationDuplicateValues drives the tie-break walk directly
// with duplicated degradation values (white-box: degr is set rather
// than accumulated, so the duplicates are exact). The lowest ID holding
// the maximum must win regardless of where the duplicates sit.
func TestMaxDegradationDuplicateValues(t *testing.T) {
	cases := []struct {
		name   string
		degr   map[int]float64
		wantID int
	}{
		{"max duplicated at head and tail", map[int]float64{1: 0.7, 3: 0.2, 8: 0.7}, 1},
		{"max duplicated mid-walk", map[int]float64{0: 0.1, 4: 0.9, 6: 0.9, 7: 0.3}, 4},
		{"all equal", map[int]float64{2: 0.5, 5: 0.5, 11: 0.5}, 2},
		{"all zero", map[int]float64{3: 0, 9: 0}, 3},
		{"single node", map[int]float64{6: 0.4}, 6},
	}
	for _, tc := range cases {
		s := newTestServer(t)
		var want float64
		for id, d := range tc.degr {
			s.Register(id, 0.5)
			s.nodes[id].degr = d
			want = max(want, d)
		}
		id, d := s.MaxDegradation()
		if id != tc.wantID || d != want {
			t.Errorf("%s: MaxDegradation = (%d, %v), want (%d, %v)", tc.name, id, d, tc.wantID, want)
		}
	}
}

// TestRegisterResetsWatermarksReplayHazard documents the Register reset
// semantics the daemon and the sim/testbed rejoin paths must respect: a
// re-Register resets the ingestion watermarks, so a pre-reset
// retransmission replays as fresh reports; Rejoin keeps the watermarks
// and stays deduplicated.
func TestRegisterResetsWatermarksReplayHazard(t *testing.T) {
	window := simtime.Minute
	t1 := simtime.Time(simtime.Hour)
	pkt := []battery.Report{
		battery.EncodeTransition(battery.Transition{At: simtime.Time(10 * simtime.Minute), SoC: 0.3}, t1, window),
	}

	ingestTwice := func(readmit func(s *Server)) (packets, dups int64) {
		rec := obs.New(obs.Manifest{}, 0)
		s := newTestServer(t)
		s.SetObserver(rec)
		s.Register(1, 0.9)
		s.Ingest(1, pkt, t1, window)
		readmit(s)
		s.Ingest(1, pkt, t1, window) // pre-readmit retransmission
		return rec.Counter("netserver.packets_ingested").Value(),
			rec.Counter("netserver.packets_duplicate").Value()
	}

	// Rejoin keeps the watermarks: the retransmission is a duplicate.
	if packets, dups := ingestTwice(func(s *Server) { s.Rejoin(1, 0.8) }); packets != 1 || dups != 1 {
		t.Errorf("rejoin path: %d ingested / %d duplicate, want 1/1", packets, dups)
	}
	// Register resets them: the same retransmission replays as fresh.
	// This is the documented battery-replacement semantics — and exactly
	// why live-node restarts must use Rejoin.
	if packets, dups := ingestTwice(func(s *Server) { s.Register(1, 0.8) }); packets != 2 || dups != 0 {
		t.Errorf("register path: %d ingested / %d duplicate, want 2/0 (watermark reset)", packets, dups)
	}
}

// buildBusyServer ingests a few days of cycling reports for three nodes
// and recomputes, leaving non-trivial tracker, watermark, and grid
// state behind.
func buildBusyServer(t *testing.T) *Server {
	t.Helper()
	s := newTestServer(t)
	window := simtime.Minute
	for _, id := range []int{0, 2, 5} {
		s.Register(id, 0.9)
	}
	for day := 0; day < 10; day++ {
		at := simtime.Time(day) * simtime.Time(simtime.Day)
		for _, id := range []int{0, 2, 5} {
			lo := 0.2 + 0.1*float64(id)
			s.Ingest(id, []battery.Report{
				battery.EncodeTransition(battery.Transition{At: at, SoC: lo}, at.Add(simtime.Hour), window),
				battery.EncodeTransition(battery.Transition{At: at.Add(40 * simtime.Minute), SoC: 0.95}, at.Add(simtime.Hour), window),
			}, at.Add(simtime.Hour), window)
		}
		s.RecomputeIfDue(at.Add(2 * simtime.Hour))
	}
	return s
}

// continueServer drives identical post-cut traffic into a server and
// returns its final w_u table.
func continueServer(s *Server) []NodeWu {
	window := simtime.Minute
	for day := 10; day < 20; day++ {
		at := simtime.Time(day) * simtime.Time(simtime.Day)
		for _, id := range []int{0, 2, 5} {
			s.Ingest(id, []battery.Report{
				battery.EncodeTransition(battery.Transition{At: at, SoC: 0.35}, at.Add(simtime.Hour), window),
				battery.EncodeTransition(battery.Transition{At: at.Add(25 * simtime.Minute), SoC: 0.9}, at.Add(simtime.Hour), window),
			}, at.Add(simtime.Hour), window)
		}
		s.RecomputeIfDue(at.Add(2 * simtime.Hour))
	}
	return s.WuTable()
}

// TestServerSnapshotRoundTrip is the server-level exactness proof: a
// server restored from a JSON-serialized snapshot must produce
// byte-identical w_u tables and bit-identical degradations on every
// subsequent ingest/recompute, versus the uninterrupted server.
func TestServerSnapshotRoundTrip(t *testing.T) {
	orig := buildBusyServer(t)

	data, err := json.Marshal(orig.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored, err := Restore(&snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	if restored.NumNodes() != orig.NumNodes() {
		t.Fatalf("restored NumNodes = %d, want %d", restored.NumNodes(), orig.NumNodes())
	}
	// Pre-recompute dissemination state carries over.
	for _, id := range []int{0, 2, 5} {
		if got, want := restored.NormalizedDegradation(id), orig.NormalizedDegradation(id); got != want {
			t.Fatalf("node %d restored w_u %v, want %v", id, got, want)
		}
		if got, want := restored.Degradation(id), orig.Degradation(id); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("node %d restored degradation %v, want %v (bit-exact)", id, got, want)
		}
	}

	wantTable := continueServer(orig)
	gotTable := continueServer(restored)
	if len(wantTable) != len(gotTable) {
		t.Fatalf("table length %d vs %d", len(gotTable), len(wantTable))
	}
	for i := range wantTable {
		if gotTable[i] != wantTable[i] {
			t.Fatalf("w_u table row %d diverged after restore: %+v vs %+v", i, gotTable[i], wantTable[i])
		}
	}
	for _, id := range []int{0, 2, 5} {
		if got, want := restored.Degradation(id), orig.Degradation(id); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("node %d degradation diverged after continuation: %v vs %v", id, got, want)
		}
	}
	// The recompute grid anchor also survives: both sides agree on what
	// is due next.
	probe := simtime.Time(20*simtime.Day + 3*simtime.Hour)
	if restored.RecomputeIfDue(probe) != orig.RecomputeIfDue(probe) {
		t.Fatal("restored server disagrees on recompute due-ness")
	}
}

// TestSnapshotPreservesWatermarks: a retransmission from before the
// snapshot must still be recognized as a duplicate after a restore —
// the watermarks are state, not cache.
func TestSnapshotPreservesWatermarks(t *testing.T) {
	window := simtime.Minute
	t1 := simtime.Time(simtime.Hour)
	pkt := []battery.Report{
		battery.EncodeTransition(battery.Transition{At: simtime.Time(10 * simtime.Minute), SoC: 0.3}, t1, window),
	}
	s := newTestServer(t)
	s.Register(1, 0.9)
	s.Ingest(1, pkt, t1, window)

	restored, err := Restore(s.Snapshot())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rec := obs.New(obs.Manifest{}, 0)
	restored.SetObserver(rec)
	restored.Ingest(1, pkt, t1, window)
	if dups := rec.Counter("netserver.packets_duplicate").Value(); dups != 1 {
		t.Errorf("pre-snapshot retransmission not deduplicated after restore (%d duplicates)", dups)
	}
}

// TestRestoreRejectsForeignSchema: a daemon must refuse to restore a
// snapshot written by an incompatible layout.
func TestRestoreRejectsForeignSchema(t *testing.T) {
	snap := newTestServer(t).Snapshot()
	snap.Schema = SnapshotSchema + 1
	if _, err := Restore(snap); err == nil {
		t.Error("Restore accepted a foreign schema")
	}
	bad := newTestServer(t).Snapshot()
	bad.Nodes = []NodeSnapshot{{ID: 3}, {ID: 3}}
	if _, err := Restore(bad); err == nil {
		t.Error("Restore accepted non-ascending node IDs")
	}
}

// TestNodeIDBound: Register ignores and Restore rejects node IDs outside
// [0, MaxNodeID), which would otherwise size the dense per-node index.
func TestNodeIDBound(t *testing.T) {
	cases := []struct {
		id int
		ok bool
	}{
		{-1, false},
		{0, true},
		{MaxNodeID - 1, true},
		{MaxNodeID, false},
		{5_000_000, false},
	}
	for _, tc := range cases {
		s := newTestServer(t)
		s.Register(tc.id, 0.5)
		if got := s.NumNodes() == 1; got != tc.ok {
			t.Errorf("Register(%d): registered %v, want %v", tc.id, got, tc.ok)
		}
		snap := newTestServer(t).Snapshot()
		snap.Nodes = []NodeSnapshot{{ID: tc.id}}
		if _, err := Restore(snap); (err == nil) != tc.ok {
			t.Errorf("Restore with node %d: err %v, want ok=%v", tc.id, err, tc.ok)
		}
	}
}

// TestSnapshotSplitMergeRoundTrip: SplitSnapshot → MergeSnapshots must
// reproduce the original snapshot byte-for-byte for any per-node shard
// map — the property the sharded daemon's /v1/snapshot and /v1/restore
// paths rest on. MergeWuTables gets the same treatment.
func TestSnapshotSplitMergeRoundTrip(t *testing.T) {
	s := buildBusyServer(t)
	want, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		shardOf := func(id int) int { return id % shards }
		parts := SplitSnapshot(s.Snapshot(), shards, shardOf)
		merged, err := MergeSnapshots(parts)
		if err != nil {
			t.Fatalf("shards=%d: MergeSnapshots: %v", shards, err)
		}
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if string(got) != string(want) {
			t.Fatalf("shards=%d: split/merge not identity:\n%s\n%s", shards, got, want)
		}

		var wuParts [][]NodeWu
		for _, p := range parts {
			srv, err := Restore(p)
			if err != nil {
				t.Fatalf("shards=%d: Restore part: %v", shards, err)
			}
			wuParts = append(wuParts, srv.WuTable())
		}
		if gotWu, wantWu := MergeWuTables(wuParts), s.WuTable(); !reflect.DeepEqual(gotWu, wantWu) {
			t.Fatalf("shards=%d: merged wu table %v, want %v", shards, gotWu, wantWu)
		}
	}
}

// TestMergeSnapshotsRejectsDisagreement: shards that drifted apart on
// global state indicate a barrier bug and must be surfaced, not merged.
func TestMergeSnapshotsRejectsDisagreement(t *testing.T) {
	a := buildBusyServer(t).Snapshot()
	b := buildBusyServer(t).Snapshot()
	b.NextDueMs += 1
	b.Nodes = nil
	a.Nodes = a.Nodes[:1]
	if _, err := MergeSnapshots([]*Snapshot{a, b}); err == nil {
		t.Error("MergeSnapshots accepted disagreeing global state")
	}
	c := buildBusyServer(t).Snapshot()
	d := buildBusyServer(t).Snapshot() // same node IDs → overlap
	if _, err := MergeSnapshots([]*Snapshot{c, d}); err == nil {
		t.Error("MergeSnapshots accepted overlapping node sets")
	}
	if _, err := MergeSnapshots(nil); err == nil {
		t.Error("MergeSnapshots accepted an empty part list")
	}
}

// TestWuTableOrder: the table walks ascending IDs with holes skipped.
func TestWuTableOrder(t *testing.T) {
	s := newTestServer(t)
	s.Register(9, 0.5)
	s.Register(1, 0.5)
	s.Register(4, 0.5)
	table := s.WuTable()
	want := []int{1, 4, 9}
	if len(table) != len(want) {
		t.Fatalf("table length %d, want %d", len(table), len(want))
	}
	for i, id := range want {
		if table[i].Node != id {
			t.Errorf("table[%d].Node = %d, want %d", i, table[i].Node, id)
		}
	}
}
