package txn

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

// Status is a transaction record's state. Transitions are one-way and
// guarded by conditional writes, so commit and abort are mutually
// exclusive even between a crashed coordinator and its redelivered retry:
//
//	preparing ──► committed ──► applied
//	     └──────► aborted
type Status string

// Record statuses.
const (
	StatusPreparing Status = "preparing"
	StatusCommitted Status = "committed"
	StatusApplied   Status = "applied"
	StatusAborted   Status = "aborted"
)

// ErrStatusConflict is returned when a conditional status transition finds
// the record in a different state (a concurrent or resumed coordinator
// already decided).
var ErrStatusConflict = errors.New("txn: record status conflict")

// Record keys and attributes in the system store.
const (
	recordKeyPrefix = "txn:"
	reqKeyPrefix    = "txnreq:"
	seqKey          = "txnseq"

	attrSeqCtr   = "n"
	attrStatus   = "status"
	attrSession  = "session"
	attrSeq      = "seq"
	attrOps      = "ops"
	attrResolved = "resolved"
	attrVotes    = "votes"
	attrReady    = "ready"
	attrCommits  = "commits"
	attrID       = "id"
)

func recordKey(id int64) string { return recordKeyPrefix + strconv.FormatInt(id, 10) }

func reqKey(session string, seq int64) string {
	return reqKeyPrefix + session + "/" + strconv.FormatInt(seq, 10)
}

// Record is the decoded durable transaction record.
type Record struct {
	ID       int64
	Status   Status
	Session  string
	Seq      int64
	Ops      []Op
	Resolved []ResolvedOp
	Votes    map[int]string // shard -> "ok" or failure code
	Ready    map[int]bool   // shards whose leader finished its commit phase
	Commits  map[int]int64  // shard -> leader-queue txid of its commit message
}

// Store manages transaction records in the system store. All mutations are
// single conditional writes or atomic list appends — the same primitives
// the deregistration fanout barrier uses — so every step is idempotent
// under queue-retry redelivery and safe against a coordinator racing its
// own crashed predecessor.
type Store struct {
	tbl *kv.Table
	k   *sim.Kernel

	// metrics, when set, counts record life-cycle transitions (begins,
	// votes, decisions) — inert no-ops unless the registry's hot-path
	// instruments are enabled.
	metrics *obs.Registry
}

// SetMetrics wires the deployment's metrics registry into the record
// store (set once at deployment time).
func (s *Store) SetMetrics(r *obs.Registry) { s.metrics = r }

func (s *Store) count(name string, shard int) {
	s.metrics.Inc(obs.Key{Component: "txn", Name: name, Shard: shard}, 1)
}

// NewStore binds a record store to the deployment's system table.
func NewStore(tbl *kv.Table, k *sim.Kernel) *Store {
	return &Store{tbl: tbl, k: k}
}

// Mint allocates a fresh transaction id from the system-store counter
// (coordinators are stateless functions; an in-memory counter would repeat
// after a restart and let a stale record shadow a new transaction).
func (s *Store) Mint(ctx cloud.Ctx) (int64, error) {
	it, err := s.tbl.Update(ctx, seqKey, []kv.Update{kv.Add{Name: attrSeqCtr, Delta: 1}}, nil)
	if err != nil {
		return 0, err
	}
	return it.Get(attrSeqCtr).Num, nil
}

// Begin writes the durable record in StatusPreparing and points the
// request key at it, so a redelivered coordinator invocation finds the
// in-flight transaction instead of starting a second one.
func (s *Store) Begin(ctx cloud.Ctx, id int64, session string, seq int64, ops []Op) error {
	if err := s.tbl.Put(ctx, recordKey(id), kv.Item{
		{Name: attrStatus, V: kv.S(string(StatusPreparing))},
		{Name: attrSession, V: kv.S(session)},
		{Name: attrSeq, V: kv.N(seq)},
		{Name: attrOps, V: kv.B(EncodeOps(ops))},
	}, nil); err != nil {
		return err
	}
	s.count("begin", 0)
	return s.tbl.Put(ctx, reqKey(session, seq), kv.Item{{Name: attrID, V: kv.N(id)}}, nil)
}

// IDForRequest returns the transaction id an earlier invocation of the
// same (session, seq) request started, or false.
func (s *Store) IDForRequest(ctx cloud.Ctx, session string, seq int64) (int64, bool) {
	it, ok := s.tbl.Get(ctx, reqKey(session, seq), true)
	if !ok {
		return 0, false
	}
	return it.Get(attrID).Num, true
}

// Lookup reads and decodes a record (false when it no longer exists —
// finished transactions are garbage collected).
func (s *Store) Lookup(ctx cloud.Ctx, id int64) (Record, bool) {
	it, ok := s.tbl.Get(ctx, recordKey(id), true)
	if !ok {
		return Record{}, false
	}
	return s.decodeRecord(id, it), true
}

func (s *Store) decodeRecord(id int64, it kv.Item) Record {
	r := Record{
		ID:      id,
		Status:  Status(it.Get(attrStatus).Str),
		Session: it.Get(attrSession).Str,
		Seq:     it.Get(attrSeq).Num,
		Votes:   map[int]string{},
		Ready:   map[int]bool{},
		Commits: map[int]int64{},
	}
	if b := it.Get(attrOps).Byt; len(b) > 0 {
		r.Ops, _ = DecodeOps(b)
	}
	if b := it.Get(attrResolved).Byt; len(b) > 0 {
		r.Resolved, _ = DecodeResolved(b)
	}
	for _, m := range it.Get(attrVotes).SL {
		if shard, val, ok := splitMarker(m); ok {
			if _, dup := r.Votes[shard]; !dup {
				r.Votes[shard] = val // first vote wins; redelivered dups ignored
			}
		}
	}
	for _, m := range it.Get(attrReady).SL {
		if shard, _, ok := splitMarker(m); ok {
			r.Ready[shard] = true
		}
	}
	for _, m := range it.Get(attrCommits).SL {
		if shard, val, ok := splitMarker(m); ok {
			if txid, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.Commits[shard] = txid
			}
		}
	}
	return r
}

// splitMarker parses a "<shard>/<value>" barrier marker.
func splitMarker(m string) (shard int, val string, ok bool) {
	i := strings.IndexByte(m, '/')
	if i < 0 {
		return 0, "", false
	}
	shard, err := strconv.Atoi(m[:i])
	if err != nil {
		return 0, "", false
	}
	return shard, m[i+1:], true
}

// Vote atomically appends one shard's prepare verdict ("ok" or a failure
// code) and returns the decoded record after the append — the caller sees
// every vote cast so far, exactly like the deregistration ack barrier.
// Duplicate votes from a redelivered prepare are harmless: votes are read
// as a per-shard set and the first value wins.
func (s *Store) Vote(ctx cloud.Ctx, id int64, shard int, verdict string) (Record, error) {
	mark := fmt.Sprintf("%d/%s", shard, verdict)
	it, err := s.tbl.Update(ctx, recordKey(id),
		[]kv.Update{kv.StrListAppend{Name: attrVotes, Vals: []string{mark}}}, nil)
	if err != nil {
		return Record{}, err
	}
	s.count("vote_"+verdictClass(verdict), shard)
	return s.decodeRecord(id, it), nil
}

// verdictClass buckets a prepare verdict for the metrics registry: "ok"
// stays, every failure code folds into "fail" (codes are unbounded).
func verdictClass(verdict string) string {
	if verdict == "ok" {
		return "ok"
	}
	return "fail"
}

// Decide performs the conditional status transition that makes the
// commit/abort decision durable; resolved (may be nil on abort) records
// the validated op list any later actor replays the commit from.
func (s *Store) Decide(ctx cloud.Ctx, id int64, from, to Status, resolved []ResolvedOp) error {
	ups := []kv.Update{kv.Set{Name: attrStatus, V: kv.S(string(to))}}
	if resolved != nil {
		ups = append(ups, kv.Set{Name: attrResolved, V: kv.B(EncodeResolved(resolved))})
	}
	_, err := s.tbl.Update(ctx, recordKey(id), ups,
		kv.Eq{Name: attrStatus, V: kv.S(string(from))})
	if errors.Is(err, kv.ErrConditionFailed) {
		return ErrStatusConflict
	}
	if err == nil {
		s.count("decide_"+string(to), 0)
	}
	return err
}

// NoteCommit records the leader-queue txid the coordinator minted for one
// shard's commit message, so a resumed coordinator neither re-pushes a
// shard that was already driven nor loses the txid its results need.
func (s *Store) NoteCommit(ctx cloud.Ctx, id int64, shard int, txid int64) error {
	mark := fmt.Sprintf("%d/%d", shard, txid)
	_, err := s.tbl.Update(ctx, recordKey(id),
		[]kv.Update{kv.StrListAppend{Name: attrCommits, Vals: []string{mark}}}, nil)
	return err
}

// Ready atomically appends one shard leader's commit-phase-done marker and
// reports how many distinct shards are ready, letting the coordinator
// barrier on all participants before the atomic apply.
func (s *Store) Ready(ctx cloud.Ctx, id int64, shard int) (int, error) {
	mark := fmt.Sprintf("%d/ok", shard)
	it, err := s.tbl.Update(ctx, recordKey(id),
		[]kv.Update{kv.StrListAppend{Name: attrReady, Vals: []string{mark}}}, nil)
	if err != nil {
		return 0, err
	}
	return len(s.decodeRecord(id, it).Ready), nil
}

// Delete garbage collects a finished record and its request pointer.
func (s *Store) Delete(ctx cloud.Ctx, id int64, session string, seq int64) {
	_ = s.tbl.Delete(ctx, recordKey(id), nil)
	_ = s.tbl.Delete(ctx, reqKey(session, seq), nil)
}

// awaitAttempts bounds every polling barrier; with the linear backoff
// below the window is far beyond any simulated commit latency.
const awaitAttempts = 120

// AwaitStatus polls until the record reaches one of the wanted statuses
// and returns it. A missing record reports ok=true with found=false: a
// finished transaction's record is garbage collected, which any waiter
// may treat as "applied and cleaned up".
func (s *Store) AwaitStatus(ctx cloud.Ctx, id int64, want ...Status) (Record, bool, bool) {
	for i := 0; i < awaitAttempts; i++ {
		rec, found := s.Lookup(ctx, id)
		if !found {
			return Record{}, false, true
		}
		for _, w := range want {
			if rec.Status == w {
				return rec, true, true
			}
		}
		s.k.Sleep(sim.Time(i+1) * sim.Ms(1))
	}
	return Record{}, false, false
}

// AwaitReady polls until n distinct shards posted their ready markers.
func (s *Store) AwaitReady(ctx cloud.Ctx, id int64, n int) (Record, bool) {
	for i := 0; i < awaitAttempts; i++ {
		rec, found := s.Lookup(ctx, id)
		if found && len(rec.Ready) >= n {
			return rec, true
		}
		s.k.Sleep(sim.Time(i+1) * sim.Ms(1))
	}
	return Record{}, false
}
