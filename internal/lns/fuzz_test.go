package lns

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDaemonHTTP posts arbitrary bodies to every body-decoding endpoint
// of an in-process daemon holding a few registered nodes, then drives a
// recompute so whatever the body installed is also evaluated. The
// daemon must never panic (a handler or shard-worker panic fails the
// target) and must answer with a status of its API contract.
func FuzzDaemonHTTP(f *testing.F) {
	// The endpoints that decode a request body; the fuzzed byte picks one.
	paths := []string{"/v1/register", "/v1/uplinks", "/v1/recompute", "/v1/restore"}
	seeds := []struct {
		path int
		body string
	}{
		{0, `{"nodes":[{"node":0,"soc":0.9}]}`},
		{0, `{"nodes":[{"node":1,"soc":0.5},{"node":0,"soc":2}]}`},
		{0, `{"nodes":[{"node":0,"soc":0.3,"rejoin":true}]}`},
		{1, `{"uplinks":[{"node":0,"at_ms":120000,"window_ms":60000,"reports":[{"ago":1,"soc_q":30000}]}]}`},
		{1, `{"uplinks":[{"node":0,"at_ms":0,"window_ms":1}]}`},
		{1, `{"uplinks":[]}`},
		{2, `{"at_ms":86400000}`},
		{3, `{"schema":2,"model":{"K1":4.14e-10,"K2":1.04,"K3":0.5,"K4":0.0693,"K5":25,"K6":0.000035,"AlphaSEI":0.0575,"KSEI":121,"EoLThreshold":0.2},"temp_c":25,"interval_ms":86400000,"computed":true,"first_compute_ms":0,"next_due_ms":86400000,"clock_ms":-1,"nodes":[{"id":3,"tracker":{"closed_raw":0,"closed_phi_sum":0,"closed_weight":0,"counter":{"stack":[0.9,0.2],"last":0.6,"dir":1,"n":3}},"degr":0,"wu":0,"last_packet_at_ms":-1,"last_report_at_ms":-1}]}`},
	}
	for _, s := range seeds {
		f.Add(uint8(s.path), []byte(s.body))
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusAccepted: true, http.StatusBadRequest: true,
		http.StatusUnprocessableEntity: true, http.StatusTooManyRequests: true,
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		d, err := NewDaemon(Config{Shards: 2, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.RegisterAll([]RegisterNode{{Node: 0, SoC: 0.9}, {Node: 1, SoC: 0.4}, {Node: 3, SoC: 0.7}})
		h := d.Handler()
		post := func(p string, b []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(b)))
			return rec.Code
		}
		p := paths[int(path)%len(paths)]
		if code := post(p, body); !allowed[code] {
			t.Fatalf("POST %s %q: status %d", p, body, code)
		}
		if code := post("/v1/recompute", []byte(`{"at_ms":864000000}`)); code != http.StatusOK {
			t.Fatalf("recompute after POST %s %q: status %d", p, body, code)
		}
		d.WuTable()
	})
}
