package txn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
)

// Status is a transaction record's state. The record is born committed —
// it is written by the same system-store transaction that commits the
// items — and the one later transition is conditional:
//
//	committed ──► applied
type Status string

// Record statuses.
const (
	StatusCommitted Status = "committed"
	StatusApplied   Status = "applied"
)

// Record keys and attributes in the system store.
const (
	recordKeyPrefix = "txn:"
	reqKeyPrefix    = "txnreq:"
	seqKey          = "txnseq"

	attrSeqCtr   = "n"
	attrStatus   = "status"
	attrResolved = "resolved"
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
	Status   Status
	Resolved []ResolvedOp
	Ready    map[int]bool  // shards whose leader finished its part
	Commits  map[int]int64 // shard -> leader-queue txid of its part
}

// Store manages transaction records in the system store. Every mutation
// is a conditional write, an atomic list append, or a leg of the
// coordinator's commit transaction, so every step is idempotent under
// queue-retry redelivery.
type Store struct {
	tbl *kv.Table
	k   *sim.Kernel
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

// Commit returns the two writes that make a transaction durable: the
// record — committed, with the resolved ops and each part's txid — and the
// request pointer a redelivered coordinator finds it by. They ride in the
// coordinator's commit transaction, so the record exists exactly when the
// items committed. The pointer must be absent: a second attempt at the
// same request cannot commit next to the first.
func (s *Store) Commit(id int64, session string, seq int64, resolved []ResolvedOp, commits map[int]int64) []kv.TxOp {
	marks := make([]string, 0, len(commits))
	for shard, txid := range commits {
		marks = append(marks, fmt.Sprintf("%d/%d", shard, txid))
	}
	sort.Strings(marks) // the same bytes on every run
	return []kv.TxOp{
		{Key: recordKey(id), Updates: []kv.Update{
			kv.Set{Name: attrStatus, V: kv.S(string(StatusCommitted))},
			kv.Set{Name: attrResolved, V: kv.B(EncodeResolved(resolved))},
			kv.Set{Name: attrCommits, V: kv.StrList(marks...)},
		}},
		{Key: reqKey(session, seq), Updates: []kv.Update{kv.Set{Name: attrID, V: kv.N(id)}},
			Cond: kv.AttrNotExists{Name: attrID}},
	}
}

// IDForRequest returns the transaction id an earlier invocation of the
// same (session, seq) request committed, or false.
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
	return decodeRecord(it), true
}

func decodeRecord(it kv.Item) Record {
	r := Record{
		Status:  Status(it.Get(attrStatus).Str),
		Ready:   map[int]bool{},
		Commits: map[int]int64{},
	}
	if b := it.Get(attrResolved).Byt; len(b) > 0 {
		r.Resolved, _ = DecodeResolved(b)
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

// MarkApplied moves a committed record to applied: the transaction is
// readable, and the leaders' deferred watch deliveries may fire.
func (s *Store) MarkApplied(ctx cloud.Ctx, id int64) error {
	_, err := s.tbl.Update(ctx, recordKey(id),
		[]kv.Update{kv.Set{Name: attrStatus, V: kv.S(string(StatusApplied))}},
		kv.Eq{Name: attrStatus, V: kv.S(string(StatusCommitted))})
	return err
}

// Ready atomically appends one shard leader's part-done marker, letting the
// coordinator barrier on all participants before the atomic apply.
func (s *Store) Ready(ctx cloud.Ctx, id int64, shard int) error {
	mark := fmt.Sprintf("%d/ok", shard)
	_, err := s.tbl.Update(ctx, recordKey(id),
		[]kv.Update{kv.StrListAppend{Name: attrReady, Vals: []string{mark}}}, nil)
	return err
}

// Delete garbage collects a finished record and its request pointer.
func (s *Store) Delete(ctx cloud.Ctx, id int64, session string, seq int64) {
	_ = s.tbl.Delete(ctx, recordKey(id), nil)
	_ = s.tbl.Delete(ctx, reqKey(session, seq), nil)
}

// awaitAttempts bounds every polling barrier; with the linear backoff
// below the window is far beyond any simulated commit latency.
const awaitAttempts = 120

// AwaitApplied polls until the record is applied. A missing record counts
// as applied: a finished transaction's record is garbage collected. false
// means the poll timed out with the record still committed.
func (s *Store) AwaitApplied(ctx cloud.Ctx, id int64) bool {
	return s.await(ctx, id, func(r Record, found bool) bool { return !found || r.Status == StatusApplied })
}

// AwaitReady polls until n distinct shards posted their ready markers.
func (s *Store) AwaitReady(ctx cloud.Ctx, id int64, n int) bool {
	return s.await(ctx, id, func(r Record, found bool) bool { return found && len(r.Ready) >= n })
}

// await polls the record (found=false once it is collected) until done
// accepts it.
func (s *Store) await(ctx cloud.Ctx, id int64, done func(r Record, found bool) bool) bool {
	for i := 0; i < awaitAttempts; i++ {
		if rec, found := s.Lookup(ctx, id); done(rec, found) {
			return true
		}
		s.k.Sleep(sim.Time(i+1) * sim.Ms(1))
	}
	return false
}
