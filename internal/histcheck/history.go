// Package histcheck judges a recorded client-visible history of a
// FaaSKeeper (or ZooKeeper) run against one model of the guarantees the
// paper claims: atomic updates, linearized writes, a single system image
// and ordered notifications (Z1–Z4), plus multi() atomicity, timeliness and
// lost-watch freedom. It imports no client, so the chaos harness and the
// client's own tests both record histories for it.
package histcheck

import (
	"encoding/json"
	"io"

	"faaskeeper/internal/sim"
)

// Event kinds recorded in a history.
const (
	KindWrite     = "write"      // single-op write ack (create/set/delete)
	KindRead      = "read"       // GetData / audit read
	KindMulti     = "multi"      // multi() with per-sub-op results
	KindWatchArm  = "watch-arm"  // one-shot watch registered (Op "children": a child watch)
	KindWatchFire = "watch-fire" // notification delivered to the session
)

// SubOp is one sub-operation's outcome inside a multi() event.
type SubOp struct {
	Op    string `json:"op"`
	Path  string `json:"path"`
	Value string `json:"value,omitempty"`
	Code  string `json:"code"`
	Txid  int64  `json:"txid,omitempty"`
}

// Event is one completed client-visible operation. Events are appended at
// completion time under the simulator's cooperative scheduling, so a
// history is totally ordered by End (equal timestamps keep completion
// order).
type Event struct {
	Session string `json:"session"`
	Kind    string `json:"kind"`
	// Op is create|set|delete|get|children; on a fire, the write it
	// announces (set, delete, create) or empty when not recorded.
	Op    string   `json:"op,omitempty"`
	Path  string   `json:"path"`
	Value string   `json:"value,omitempty"`
	Mzxid int64    `json:"mzxid,omitempty"` // observed mzxid / ack txid / fire txid / arm-read mzxid
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
	Err   string   `json:"err,omitempty"`
	// Definite marks an error the validation pipeline produced before any
	// commit (no_node, bad_version, ...): the operation certainly did not
	// happen. Errors without it (system error, timeout) are indeterminate
	// — the write may still have committed behind the failure.
	Definite bool    `json:"definite,omitempty"`
	WatchID  int64   `json:"watch_id,omitempty"`
	Ops      []SubOp `json:"ops,omitempty"`
	// Children is the sorted child list a children read or a child watch's
	// arming read returned.
	Children []string `json:"children,omitempty"`
	// Version is an acked set's data version (0: not recorded).
	Version int32 `json:"version,omitempty"`
}

// History is the recorded client-visible history of one scenario run.
type History struct {
	Events []Event
}

// Add appends one completed event.
func (h *History) Add(e Event) { h.Events = append(h.Events, e) }

// Len returns the number of recorded events.
func (h *History) Len() int { return len(h.Events) }

// WriteJSONL dumps the history one JSON event per line — the artifact a
// failing nightly run uploads next to its seed.
func (h *History) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range h.Events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
