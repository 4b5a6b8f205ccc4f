package core

// Tests of the watch epoch item's layout: one system-store item per region
// (epochKey) listing one entry per fired group still in flight — an
// attribute named by its shard, txid and index (appendEntryName) holding its watch
// id — set by the leader that fired it and removed by its delivery.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

// TestEpochListsShareOneItemPerRegion fires data watches on every shard of a
// 4-shard deployment at once and reads the region's epoch item every
// virtual millisecond until every delivery has returned. At every read, each
// entry names the shard that fired the id it holds, Deployment.Epoch
// — one read of the item — returns exactly the entries' ids, and they hold
// every delivery then in flight, on whichever shard. Once every delivery
// has returned the item lists no entry: the shards' concurrent sets and the
// deliveries' removals on the shared item lost nothing.
func TestEpochListsShareOneItemPerRegion(t *testing.T) {
	const shards, perShard = 4, 2
	r := newPipeRig(t, 41, Config{WriteShards: shards}, nil)
	d := r.d
	home := d.Cfg.Profile.Home
	key := epochKeyPrefix + string(home)

	var paths []string
	fired := make([][]int64, shards)
	for i := 0; len(paths) < shards*perShard; i++ {
		p := fmt.Sprintf("/p%d", i)
		if s := ShardOf(p, shards); len(fired[s]) < perShard {
			paths = append(paths, p)
			fired[s] = append(fired[s], WatchID(p, WatchData))
		}
	}
	type read struct {
		at    sim.Time
		epoch []int64
		item  kv.Item
	}
	var reads []read
	var v *pipeSession
	r.k.Go("main", func() {
		v = r.open("v")
		var ws []*pipeSession
		for i, p := range paths {
			ws = append(ws, r.open(fmt.Sprint("w", i)))
			if resp := ws[i].do(OpCreate, p, "0"); resp.Code != CodeOK {
				t.Errorf("create %s: %s", p, resp.Code)
			}
			v.arm(p)
		}
		r.k.Sleep(sim.Ms(200))
		// One writer per path, all at once: the shards' leaders claim their
		// watches while the others' deliveries are in flight.
		for i, p := range paths {
			ws[i].submit(OpSetData, p, "1")
		}
		for end := r.k.Now() + sim.Ms(2000); r.k.Now() < end; r.k.Sleep(sim.Ms(1)) {
			epoch := d.Epoch(v.ctx, home)
			item, _ := d.System.Peek(key) // the instant the read returned
			reads = append(reads, read{r.k.Now(), epoch, item})
		}
	})
	r.run()

	var deliveries []obs.Span
	for _, sp := range d.Obs.Tracer.Spans() {
		if sp.Name == obs.SpanWatchDeliver {
			deliveries = append(deliveries, sp)
		}
	}
	if len(deliveries) != len(paths) || len(v.notes) != len(paths) {
		t.Fatalf("%d deliveries, %d notifications; want one of each per path (%d)", len(deliveries), len(v.notes), len(paths))
	}
	concurrent := 0 // the most shards with a delivery in flight at one read
	for _, rd := range reads {
		var ids []int64
		for _, a := range rd.item {
			s := -1
			for i := 0; i < shards; i++ {
				if strings.HasPrefix(a.Name, entryPrefix(i)) {
					s = i
				}
			}
			if s < 0 || !slices.Contains(fired[s], a.V.Num()) {
				t.Fatalf("at %d entry %s holds %d, which the shard it names did not fire (item %v)", rd.at, a.Name, a.V.Num(), rd.item)
			}
			ids = append(ids, a.V.Num())
		}
		if len(rd.item) > len(paths) {
			t.Fatalf("at %d the epoch item %v lists more entries than groups fired", rd.at, rd.item)
		}
		if !slices.Equal(rd.epoch, ids) {
			t.Fatalf("at %d Epoch = %v, want the ids of the item's entries %v", rd.at, rd.epoch, ids)
		}
		busy := map[int]bool{}
		for _, sp := range deliveries {
			if sp.Start <= rd.at && rd.at < sp.End {
				busy[sp.Shard] = true
				if wid := WatchID(sp.Path, WatchData); !slices.Contains(rd.epoch, wid) {
					t.Fatalf("at %d Epoch = %v misses %d, whose delivery on shard %d is in flight", rd.at, rd.epoch, wid, sp.Shard)
				}
			}
		}
		concurrent = max(concurrent, len(busy))
	}
	if concurrent < 2 {
		t.Fatalf("at most %d shard(s) had a delivery in flight at one read, want two or more (pick another seed)", concurrent)
	}
	if after, _ := d.System.Peek(key); len(after) != 0 {
		t.Errorf("epoch item after every delivery returned: %v, want no entry", after)
	}
}

// TestOneShardEpochItemIsThePaperCounter: on the paper's one-shard
// deployment a fired watch's id enters the region's epoch item as one entry,
// named by the write's txid, and leaves it with its delivery, so the item
// is the paper's per-region counter of deliveries in flight.
func TestOneShardEpochItemIsThePaperCounter(t *testing.T) {
	r := newPipeRig(t, 5, Config{}, nil)
	key := epochKeyPrefix + string(r.d.Cfg.Profile.Home)
	wid := WatchID("/x", WatchData)
	var inFlight kv.Item
	var txid int64
	r.k.Go("main", func() {
		w, v := r.open("w"), r.open("v")
		w.do(OpCreate, "/x", "0")
		v.arm("/x")
		txid = w.do(OpSetData, "/x", "1").Txid
		inFlight, _ = r.d.System.Peek(key)
	})
	r.run()
	if name := string(appendEntryName(nil, entryPrefix(0), txid, 0)); len(inFlight) != 1 || inFlight[0].Name != name || inFlight[0].V.Num() != wid {
		t.Errorf("one-shard epoch item in flight = %v, want {%s: %d}", inFlight, name, wid)
	}
	if after, _ := r.d.System.Peek(key); len(after) != 0 {
		t.Errorf("one-shard epoch item after the run = %v, want no entry", after)
	}
}

// TestEpochExitRemovesOnlyItsOwnEntry: two sessions watch one node, the
// second arming after the first's fire was claimed, so two deliveries of
// one watch id are in flight at once. Every storage operation of the watch
// function is held, so the first delivery exits while the second is still
// in flight, and it removes its own entry only: at every read while the
// second is in flight, Deployment.Epoch still lists the id. An exit that
// removed every entry of its id would leave the second delivery's
// notification out of the stamps of the writes made meanwhile.
func TestEpochExitRemovesOnlyItsOwnEntry(t *testing.T) {
	hook := &pipeFaults{}
	holding := false
	hook.hold = func(proc string) sim.Time {
		if holding && proc == "invoke-async:"+FnWatch {
			return sim.Ms(300)
		}
		return 0
	}
	r := newPipeRig(t, 23, Config{}, hook)
	d, home := r.d, r.d.Cfg.Profile.Home
	wid := WatchID("/x", WatchData)
	type read struct {
		at    sim.Time
		epoch []int64
	}
	var reads []read
	var v1, v2 *pipeSession
	r.k.Go("main", func() {
		w := r.open("w")
		v1 = r.open("v1")
		w.do(OpCreate, "/x", "0")
		v1.arm("/x")
		r.k.Sleep(sim.Ms(200))
		holding = true
		w.do(OpSetData, "/x", "1") // fires v1's registration
		v2 = r.open("v2")
		v2.arm("/x") // after the first fire's claim: the second fire's
		w.do(OpSetData, "/x", "2")
		for end := r.k.Now() + sim.Ms(4000); r.k.Now() < end; r.k.Sleep(sim.Ms(1)) {
			epoch := d.Epoch(w.ctx, home)
			reads = append(reads, read{r.k.Now(), epoch}) // the instant the read returned
		}
		holding = false
	})
	r.run()

	var deliveries []obs.Span
	for _, sp := range d.Obs.Tracer.Spans() {
		if sp.Name == obs.SpanWatchDeliver {
			deliveries = append(deliveries, sp)
		}
	}
	if len(deliveries) != 2 || len(v1.notes) != 1 || len(v2.notes) != 1 {
		t.Fatalf("%d deliveries, %d and %d notifications: want two deliveries, one notification each", len(deliveries), len(v1.notes), len(v2.notes))
	}
	first, second := deliveries[0], deliveries[1]
	if first.Start > second.Start {
		first, second = second, first
	}
	if !(second.Start < first.End && first.End < second.End) {
		t.Fatalf("deliveries %v–%v and %v–%v: want the first to return while the second is in flight", first.Start, first.End, second.Start, second.End)
	}
	checked := 0
	for _, rd := range reads {
		if rd.at >= first.End && rd.at < second.End {
			checked++
			if !slices.Contains(rd.epoch, wid) {
				t.Fatalf("at %v, after the first delivery returned at %v, Epoch = %v misses %d, whose second delivery returns at %v",
					rd.at, first.End, rd.epoch, wid, second.End)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no read fell between the two deliveries' returns")
	}
}
