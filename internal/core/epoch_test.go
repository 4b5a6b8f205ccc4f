package core

// Tests of the watch epoch item's layout: one system-store item per region
// (epochKey) holding every leader shard's in-flight watch list, one
// attribute per shard (Deployment.epochAttrs).

import (
	"fmt"
	"slices"
	"testing"

	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

// TestEpochListsShareOneItemPerRegion fires data watches on every shard of a
// 4-shard deployment at once and reads the region's epoch item every
// virtual millisecond until every delivery is reaped. At every read, each
// shard's attribute holds only ids that shard fired, Deployment.Epoch — one
// read of the item — returns exactly the union of the attributes, and that
// union holds every delivery then in flight, on whichever shard. Once every
// delivery is reaped each attribute is empty: the shards' concurrent
// appends and removes on the shared item lost nothing.
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
		var union []int64
		for s, attr := range d.epochAttrs {
			list := rd.item.Get(attr).NL()
			for _, id := range list {
				if !slices.Contains(fired[s], id) {
					t.Fatalf("at %d shard %d's list %s holds %d, which it did not fire (item %v)", rd.at, s, attr, id, rd.item)
				}
			}
			union = append(union, list...)
		}
		if len(rd.item) > shards {
			t.Fatalf("at %d the epoch item %v has more attributes than shards", rd.at, rd.item)
		}
		if !slices.Equal(rd.epoch, union) {
			t.Fatalf("at %d Epoch = %v, want the union of the shards' lists %v", rd.at, rd.epoch, union)
		}
		busy := map[int]bool{}
		for _, sp := range deliveries {
			if sp.Start <= rd.at && rd.at <= sp.End {
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

	reaped, ok := d.System.Peek(key)
	if !ok || len(reaped) != shards {
		t.Fatalf("epoch item after the run: %v, want one attribute per shard", reaped)
	}
	for _, a := range reaped {
		if len(a.V.NL()) != 0 {
			t.Errorf("list %s still holds %v after every delivery was reaped", a.Name, a.V.NL())
		}
	}
}

// TestOneShardEpochItemIsThePaperCounter: on the paper's one-shard
// deployment a fired watch's id enters and leaves the single attribute w of
// the region's epoch item, so the item — and every latency and dollar drawn
// from its size — is the paper's per-region counter.
func TestOneShardEpochItemIsThePaperCounter(t *testing.T) {
	r := newPipeRig(t, 5, Config{}, nil)
	key := epochKeyPrefix + string(r.d.Cfg.Profile.Home)
	wid := WatchID("/x", WatchData)
	var inFlight kv.Item
	r.k.Go("main", func() {
		w, v := r.open("w"), r.open("v")
		w.do(OpCreate, "/x", "0")
		v.arm("/x")
		w.do(OpSetData, "/x", "1")
		inFlight, _ = r.d.System.Peek(key)
	})
	r.run()
	if len(inFlight) != 1 || inFlight[0].Name != "w" || !slices.Equal(inFlight[0].V.NL(), []int64{wid}) {
		t.Errorf("one-shard epoch item in flight = %v, want {w: [%d]}", inFlight, wid)
	}
	if reaped, _ := r.d.System.Peek(key); len(reaped) != 1 || reaped[0].Name != "w" || len(reaped[0].V.NL()) != 0 {
		t.Errorf("one-shard epoch item after the run = %v, want {w: []}", reaped)
	}
}
