package core

// Tests of the watch epoch item: one system-store item per region
// (epochKey) listing one entry per fired group still in flight, set by the
// leader that fired it and removed by its own delivery. That the shards'
// entries share the item without losing one, that every delivery in flight
// is in the stamp, and that the item is empty at rest are the chaos
// matrix's to check: histcheck's watch-stale-read judges its reads against
// the notifications, and Deployment.AtRest its end state.

import (
	"slices"
	"testing"

	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

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
