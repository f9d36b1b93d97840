// Package lns stands the network server (internal/netserver) up as a
// deployable LNS-style daemon: HTTP(+JSON) uplink ingest sharded by
// node-ID range (one private netserver.Server sub-fleet per worker
// lane, bounded queues, explicit backpressure), fleet-wide w_u
// recomputation at barriers on the virtual clock carried by the
// traffic itself, snapshot/restore of the full per-node degradation
// state, and ingest/recompute metrics through internal/obs.
//
// The package is a library so the daemon core is testable and
// benchmarkable in-process; cmd/lnsd is the thin binary around it and
// cmd/loadgen the replay client. The correctness contract is
// exactness: a report stream driven through the HTTP path must leave
// the fleet in a state byte-identical to direct library Ingest calls
// (ReplayBatch is the single shared apply path, and barrier recomputes
// make the result a pure function of each node's sub-stream plus the
// merged clock — independent of shard count and cross-shard
// interleaving), and a snapshot → restart → resume run must match an
// uninterrupted one exactly.
package lns

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/netserver"
)

// WireReport is one SoC transition report in JSON wire form, mirroring
// the 4-byte on-air encoding (battery.Report): a window-offset age and a
// 16-bit quantized SoC.
type WireReport struct {
	// Ago is how many whole forecast windows before the packet's
	// transmission the transition occurred.
	Ago uint16 `json:"ago"`
	// SoCQ is the state of charge quantized to 1/65535 steps.
	SoCQ uint16 `json:"soc_q"`
}

// Uplink is one device uplink: the reports it piggy-backs plus the
// reception instant and the node's forecast-window length needed to
// decode them. Times are simulated milliseconds — the daemon runs on
// the virtual clock carried by the traffic, never the wall clock.
type Uplink struct {
	Node     int          `json:"node"`
	AtMs     int64        `json:"at_ms"`
	WindowMs int64        `json:"window_ms"`
	Reports  []WireReport `json:"reports,omitempty"`
}

// Batch is the body of POST /v1/uplinks: uplinks applied in order as
// one queue entry.
type Batch struct {
	Uplinks []Uplink `json:"uplinks"`
}

// RegisterNode is one entry of a registration request. Rejoin selects
// the history-preserving re-admission (netserver.Rejoin) for a node
// that restarted; a plain register on a live node resets its
// degradation history AND ingestion watermarks (battery-replacement
// semantics), so replaying clients must never re-register mid-stream.
type RegisterNode struct {
	Node   int     `json:"node"`
	SoC    float64 `json:"soc"`
	Rejoin bool    `json:"rejoin,omitempty"`
}

// RegisterReq is the body of POST /v1/register.
type RegisterReq struct {
	Nodes []RegisterNode `json:"nodes"`
}

// Validate reports the first node whose SoC lies outside [0, 1]: the
// value seeds the node's degradation tracker, so an out-of-range SoC
// would corrupt every later degradation and w_u it feeds.
func (r RegisterReq) Validate() error {
	for _, n := range r.Nodes {
		if !(n.SoC >= 0 && n.SoC <= 1) {
			return fmt.Errorf("node %d: soc %v outside [0,1]", n.Node, n.SoC)
		}
	}
	return nil
}

// RecomputeReq is the body of POST /v1/recompute: force the due check
// at a given virtual instant (e.g. end of a replayed trace).
type RecomputeReq struct {
	AtMs int64 `json:"at_ms"`
}

// RecomputeResp reports whether the recompute actually ran.
type RecomputeResp struct {
	Ran bool `json:"ran"`
}

// IngestResp is the body of a 202 from POST /v1/uplinks.
type IngestResp struct {
	Queued int `json:"queued"`
}

// WriteWuTable writes the disseminated w_u table as deterministic JSON:
// one array, nodes ascending, one trailing newline. Two servers in the
// same state produce byte-identical output — the comparison primitive
// used by loadgen -local, the idempotence tests, and the CI smoke.
func WriteWuTable(w io.Writer, table []netserver.NodeWu) error {
	return json.NewEncoder(w).Encode(table)
}
