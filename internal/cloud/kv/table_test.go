package kv

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

func newEnv(seed int64) (*sim.Kernel, *cloud.Env, cloud.Ctx) {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	return k, env, cloud.ClientCtx(cloud.RegionAWSHome)
}

func TestPutGetRoundTrip(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		if err := tbl.Put(ctx, "a", Item{{Name: "x", V: N(7)}, {Name: "s", V: S("hello")}}, nil); err != nil {
			t.Errorf("put: %v", err)
		}
		it, ok := tbl.Get(ctx, "a", true)
		if !ok || it.Get("x").Num != 7 || it.Get("s").Str != "hello" {
			t.Errorf("get: %v %v", it, ok)
		}
		if _, ok := tbl.Get(ctx, "missing", true); ok {
			t.Error("missing key found")
		}
	})
	k.Run()
	if env.Meter.Count("kv.write") != 1 || env.Meter.Count("kv.read") != 2 {
		t.Fatalf("meter counts: %v", env.Meter)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Put(ctx, "a", Item{{Name: "b", V: B([]byte{1, 2})}}, nil)
		it, _ := tbl.Get(ctx, "a", true)
		it.Get("b").Byt[0] = 99
		it2, _ := tbl.Get(ctx, "a", true)
		if it2.Get("b").Byt[0] != 1 {
			t.Error("stored item was aliased by reader")
		}
	})
	k.Run()
}

func TestConditionalPut(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		if err := tbl.Put(ctx, "n", Item{{Name: "v", V: N(1)}}, NotExists{}); err != nil {
			t.Errorf("first put: %v", err)
		}
		err := tbl.Put(ctx, "n", Item{{Name: "v", V: N(2)}}, NotExists{})
		if !errors.Is(err, ErrConditionFailed) {
			t.Errorf("second put err = %v", err)
		}
		it, _ := tbl.Get(ctx, "n", true)
		if it.Get("v").Num != 1 {
			t.Errorf("overwrite happened: %v", it)
		}
	})
	k.Run()
}

func TestUpdateAtomicCounter(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		for i := 0; i < 5; i++ {
			if _, err := tbl.Update(ctx, "ctr", []Update{Add{"n", 2}}, nil); err != nil {
				t.Errorf("update: %v", err)
			}
		}
		it, _ := tbl.Get(ctx, "ctr", true)
		if it.Get("n").Num != 10 {
			t.Errorf("counter = %d", it.Get("n").Num)
		}
	})
	k.Run()
}

func TestUpdateListOps(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Update(ctx, "l", []Update{ListAppend{"xs", []int64{1, 2, 3}}}, nil)
		tbl.Update(ctx, "l", []Update{ListAppend{"xs", []int64{4}}}, nil)
		tbl.Update(ctx, "l", []Update{ListRemove{"xs", []int64{2}}}, nil)
		it, _ := tbl.Get(ctx, "l", true)
		want := []int64{1, 3, 4}
		got := it.Get("xs").NL
		if len(got) != len(want) {
			t.Fatalf("list = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("list = %v", got)
			}
		}
		tbl.Update(ctx, "l", []Update{ListPopHead{"xs"}}, nil)
		it, _ = tbl.Get(ctx, "l", true)
		if it.Get("xs").NL[0] != 3 {
			t.Fatalf("after pop: %v", it.Get("xs").NL)
		}
	})
	k.Run()
}

func TestStrListOps(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Update(ctx, "c", []Update{StrListAppend{"kids", []string{"a", "b"}}}, nil)
		tbl.Update(ctx, "c", []Update{StrListRemove{"kids", []string{"a"}}}, nil)
		it, _ := tbl.Get(ctx, "c", true)
		if len(it.Get("kids").SL) != 1 || it.Get("kids").SL[0] != "b" {
			t.Fatalf("kids = %v", it.Get("kids").SL)
		}
	})
	k.Run()
}

func TestConditionalUpdateLockSemantics(t *testing.T) {
	// Two writers race for a timed lock; exactly one must win.
	k, env, ctx := newEnv(42)
	tbl := NewTable(env, "state")
	wins := 0
	losses := 0
	acquire := func(ts int64) {
		cond := Or{AttrNotExists{"lock"}, NumLt{"lock", ts - 1000}}
		_, err := tbl.Update(ctx, "node", []Update{Set{"lock", N(ts)}}, cond)
		if err == nil {
			wins++
		} else if errors.Is(err, ErrConditionFailed) {
			losses++
		} else {
			t.Errorf("unexpected: %v", err)
		}
	}
	k.Go("w1", func() { acquire(10) })
	k.Go("w2", func() { acquire(11) })
	k.Run()
	if wins != 1 || losses != 1 {
		t.Fatalf("wins=%d losses=%d", wins, losses)
	}
}

func TestDeleteWithCondition(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Put(ctx, "d", Item{{Name: "v", V: N(3)}}, nil)
		if err := tbl.Delete(ctx, "d", Eq{"v", N(4)}); !errors.Is(err, ErrConditionFailed) {
			t.Errorf("mismatched delete: %v", err)
		}
		if err := tbl.Delete(ctx, "d", Eq{"v", N(3)}); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, ok := tbl.Get(ctx, "d", true); ok {
			t.Error("still present")
		}
		if err := tbl.Delete(ctx, "d", nil); err != nil {
			t.Errorf("idempotent delete: %v", err)
		}
	})
	k.Run()
}

func TestItemSizeLimit(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		big := make([]byte, 401*1024)
		if err := tbl.Put(ctx, "big", Item{{Name: "d", V: B(big)}}, nil); !errors.Is(err, ErrItemTooLarge) {
			t.Errorf("put err = %v", err)
		}
		tbl.Put(ctx, "x", Item{{Name: "d", V: B(make([]byte, 399*1024))}}, nil)
		_, err := tbl.Update(ctx, "x", []Update{Set{"e", B(make([]byte, 2*1024))}}, nil)
		if !errors.Is(err, ErrItemTooLarge) {
			t.Errorf("update err = %v", err)
		}
	})
	k.Run()
}

// eventualReads runs 50 eventually consistent reads of one key through
// read, each racing a write that landed just before it (so the replica-lag
// coin is flipped every time: the previous version holds 1, the current
// one 2), then one read of a missing key. It returns what the reads saw,
// the virtual time the run ended at and what it billed.
func eventualReads(t *testing.T, read func(*Table, cloud.Ctx, string, bool) (Item, bool)) (vals []int64, end sim.Time, usd float64) {
	k, env, ctx := newEnv(7)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Put(ctx, "v", Item{{Name: "n", V: N(1)}}, nil)
		k.Sleep(time.Second) // age the first version fully
		for i := 0; i < 50; i++ {
			tbl.Put(ctx, "v", Item{{Name: "n", V: N(2)}}, nil)
			it, _ := read(tbl, ctx, "v", false)
			vals = append(vals, it.Get("n").Num)
			tbl.Put(ctx, "v", Item{{Name: "n", V: N(1)}}, nil)
			k.Sleep(100 * time.Millisecond)
		}
		if _, ok := read(tbl, ctx, "missing", false); ok {
			t.Error("missing key found")
		}
	})
	k.Run()
	return vals, k.Now(), env.Meter.Total()
}

// countStale counts the reads of eventualReads that saw the previous
// version.
func countStale(vals []int64) (stale int) {
	for _, v := range vals {
		if v == 1 {
			stale++
		}
	}
	return stale
}

func TestEventualReadCanBeStale(t *testing.T) {
	vals, _, _ := eventualReads(t, (*Table).Get)
	if countStale(vals) == 0 {
		t.Fatal("eventually consistent reads never returned stale data")
	}
	if countStale(vals) == len(vals) {
		t.Fatal("eventually consistent reads never caught up")
	}
	// Strongly consistent reads must never be stale.
	k2, env2, ctx2 := newEnv(7)
	tbl2 := NewTable(env2, "state")
	k2.Go("client", func() {
		for i := 0; i < 20; i++ {
			tbl2.Put(ctx2, "v", Item{{Name: "n", V: N(int64(i))}}, nil)
			it, _ := tbl2.Get(ctx2, "v", true)
			if it.Get("n").Num != int64(i) {
				t.Errorf("strong read stale: %v", it)
			}
		}
	})
	k2.Run()
}

// TestGetViewMatchesGet: Get is GetView plus a copy, so the same read
// sequence through either — stale branch and fresh branch both taken —
// returns the same values, ends at the same virtual time and bills the
// same dollars on a same-seed kernel. Only the view aliases table storage.
func TestGetViewMatchesGet(t *testing.T) {
	vals, end, usd := eventualReads(t, (*Table).GetView)
	if n := countStale(vals); n == 0 || n == len(vals) {
		t.Fatalf("GetView returned the previous version in %d reads of %d: the stale branch and the fresh one must both run",
			n, len(vals))
	}
	gVals, gEnd, gUSD := eventualReads(t, (*Table).Get)
	if !reflect.DeepEqual(vals, gVals) || end != gEnd || usd != gUSD {
		t.Fatalf("Get and GetView diverged on the same seed:\n view %v, ends %v, $%v\n get  %v, ends %v, $%v",
			vals, end, usd, gVals, gEnd, gUSD)
	}

	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Put(ctx, "a", Item{{Name: "b", V: B([]byte{1, 2})}}, nil)
		v1, _ := tbl.GetView(ctx, "a", true)
		v2, _ := tbl.GetView(ctx, "a", true)
		if &v1.Get("b").Byt[0] != &v2.Get("b").Byt[0] {
			t.Error("GetView copied the item")
		}
	})
	k.Run()
}

func TestTransactAllOrNothing(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		tbl.Put(ctx, "a", Item{{Name: "v", V: N(1)}}, nil)
		err := tbl.Transact(ctx, []TxOp{
			{Key: "a", Updates: []Update{Set{"v", N(2)}}, Cond: Eq{"v", N(1)}},
			{Key: "b", Updates: []Update{Set{"v", N(9)}}, Cond: Exists{}}, // fails
		})
		if !errors.Is(err, ErrConditionFailed) {
			t.Errorf("tx err = %v", err)
		}
		it, _ := tbl.Get(ctx, "a", true)
		if it.Get("v").Num != 1 {
			t.Errorf("partial tx applied: %v", it)
		}
		err = tbl.Transact(ctx, []TxOp{
			{Key: "a", Updates: []Update{Set{"v", N(2)}}, Cond: Eq{"v", N(1)}},
			{Key: "b", Updates: []Update{Set{"v", N(9)}}},
		})
		if err != nil {
			t.Errorf("tx: %v", err)
		}
		ita, _ := tbl.Get(ctx, "a", true)
		itb, _ := tbl.Get(ctx, "b", true)
		if ita.Get("v").Num != 2 || itb.Get("v").Num != 9 {
			t.Errorf("tx results: %v %v", ita, itb)
		}
		// Transactional delete leg.
		err = tbl.Transact(ctx, []TxOp{{Key: "b", Delete: true, Cond: Exists{}}})
		if err != nil {
			t.Errorf("tx delete: %v", err)
		}
		if _, ok := tbl.Get(ctx, "b", true); ok {
			t.Error("b survived tx delete")
		}
	})
	k.Run()
}

func TestScanOrderAndBilling(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "sessions")
	k.Go("client", func() {
		tbl.Put(ctx, "c", Item{{Name: "v", V: N(3)}}, nil)
		tbl.Put(ctx, "a", Item{{Name: "v", V: N(1)}}, nil)
		tbl.Put(ctx, "b", Item{{Name: "v", V: N(2)}}, nil)
		got := tbl.Scan(ctx)
		if len(got) != 3 || got[0].Key != "a" || got[1].Key != "b" || got[2].Key != "c" {
			t.Errorf("scan = %v", got)
		}
	})
	k.Run()
	if env.Meter.Count("kv.read") != 1 {
		t.Fatalf("scan should bill one read batch: %v", env.Meter)
	}
}

func TestStreamEmitsCommittedWrites(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	s := tbl.EnableStream()
	var recs []StreamRecord
	k.Go("consumer", func() {
		for {
			r, ok := s.Records.Pop()
			if !ok {
				return
			}
			recs = append(recs, r)
		}
	})
	k.Go("writer", func() {
		tbl.Put(ctx, "a", Item{{Name: "v", V: N(1)}}, nil)
		tbl.Put(ctx, "a", Item{{Name: "v", V: N(2)}}, NotExists{}) // fails: no record
		tbl.Update(ctx, "a", []Update{Add{"v", 1}}, nil)
		tbl.Delete(ctx, "a", nil)
		s.Records.Close()
	})
	k.Run()
	if len(recs) != 3 {
		t.Fatalf("records = %v", recs)
	}
	if recs[0].SeqNo >= recs[1].SeqNo || recs[1].SeqNo >= recs[2].SeqNo {
		t.Fatal("stream sequence numbers not increasing")
	}
	if recs[2].Item != nil {
		t.Fatal("delete record should have nil item")
	}
}

func TestLatencyGrowsWithItemSize(t *testing.T) {
	// Table 6a: updating a 64 kB item is far slower than a 1 kB item even
	// when the change is 8 bytes.
	k, env, ctx := newEnv(3)
	tbl := NewTable(env, "state")
	var small, large sim.Time
	k.Go("client", func() {
		tbl.Put(ctx, "s", Item{{Name: "d", V: B(make([]byte, 1024))}}, nil)
		tbl.Put(ctx, "l", Item{{Name: "d", V: B(make([]byte, 64*1024))}}, nil)
		t0 := k.Now()
		for i := 0; i < 20; i++ {
			tbl.Update(ctx, "s", []Update{Set{"lock", N(1)}}, AttrNotExists{"nope"})
		}
		small = k.Now() - t0
		t0 = k.Now()
		for i := 0; i < 20; i++ {
			tbl.Update(ctx, "l", []Update{Set{"lock", N(1)}}, AttrNotExists{"nope"})
		}
		large = k.Now() - t0
	})
	k.Run()
	if float64(large) < 5*float64(small) {
		t.Fatalf("large-item updates too fast: small=%v large=%v", small, large)
	}
}

func TestValueCloneIndependence(t *testing.T) {
	f := func(ns []int64, ss []string, bs []byte) bool {
		v1 := NumList(ns...).Clone()
		v2 := StrList(ss...).Clone()
		v3 := B(bs).Clone()
		if len(ns) > 0 {
			ns[0]++
			if v1.NL[0] == ns[0] {
				return false
			}
		}
		if len(ss) > 0 {
			ss[0] += "x"
			if v2.SL[0] == ss[0] {
				return false
			}
		}
		if len(bs) > 0 {
			bs[0]++
			if v3.Byt[0] == bs[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestItemSizeAccounting(t *testing.T) {
	it := Item{{Name: "ab", V: N(1)}, {Name: "c", V: S("xyz")}, {Name: "d", V: B([]byte{1, 2, 3, 4})}}
	// 2+8 + 1+3 + 1+4 = 19
	if got := it.Size(); got != 19 {
		t.Fatalf("size = %d", got)
	}
	if NumList(1, 2, 3).Size() != 24 {
		t.Fatal("numlist size")
	}
	if StrList("ab", "c").Size() != 5 {
		t.Fatal("strlist size")
	}
}

func TestCondStringsAndCombinators(t *testing.T) {
	it := Item{{Name: "v", V: N(5)}, {Name: "xs", V: NumList(7, 8)}}
	cases := []struct {
		c    Cond
		want bool
	}{
		{Exists{}, true},
		{Not{NotExists{}}, true},
		{AttrExists{"v"}, true},
		{AttrNotExists{"v"}, false},
		{Eq{"v", N(5)}, true},
		{Eq{"v", N(6)}, false},
		{NumLt{"v", 6}, true},
		{NumLt{"v", 5}, false},
		{NumListHeadEq{"xs", 7}, true},
		{NumListHeadEq{"xs", 8}, false},
		{And{Exists{}, Eq{"v", N(5)}}, true},
		{And{Exists{}, Eq{"v", N(6)}}, false},
		{Or{Eq{"v", N(6)}, NumLt{"v", 100}}, true},
		{Or{Eq{"v", N(6)}, NumLt{"v", 1}}, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(it, true); got != c.want {
			t.Errorf("%s = %v, want %v", c.c, got, c.want)
		}
		if c.c.String() == "" {
			t.Errorf("empty string for %T", c.c)
		}
	}
	// Absent item.
	if (Eq{"v", N(5)}).Eval(nil, false) {
		t.Error("Eq on absent item")
	}
	if !(NotExists{}).Eval(nil, false) {
		t.Error("NotExists on absent item")
	}
}

// TestUpdateReturnsCopy: the item Update hands back shares nothing with
// table storage — neither the attribute list nor any list value.
func TestUpdateReturnsCopy(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		it, err := tbl.Update(ctx, "a", []Update{
			Set{"b", B([]byte{1, 2})},
			ListAppend{"nl", []int64{1, 2}},
			StrListAppend{"sl", []string{"x", "y"}},
		}, nil)
		if err != nil {
			t.Errorf("update: %v", err)
			return
		}

		b, nl, sl := it.ptr("b"), it.ptr("nl"), it.ptr("sl")
		b.Byt[0], nl.NL[0], sl.SL[0] = 99, 99, "zz"
		b.Byt = append(b.Byt[:1], 7)
		nl.NL = append(nl.NL[:1], 7)
		sl.SL = append(sl.SL[:1], "q")
		it.Set("b", N(0))
		it.Set("new", N(1))
		it.Remove("nl")

		got, _ := tbl.Peek("a")
		want := Item{{Name: "b", V: B([]byte{1, 2})}, {Name: "nl", V: NumList(1, 2)}, {Name: "sl", V: StrList("x", "y")}}
		if len(got) != len(want) {
			t.Errorf("stored item is %v, want %v", got, want)
		}
		for _, a := range want {
			if !got.Get(a.Name).Equal(a.V) {
				t.Errorf("stored %s changed through Update's result: %v, want %v", a.Name, got.Get(a.Name), a.V)
			}
		}
	})
	k.Run()
}

// TestItemNamesStayUnique: Set, Remove and the table's write paths never
// leave two attributes with one name, whatever the caller's literal held.
func TestItemNamesStayUnique(t *testing.T) {
	var it Item
	it.Set("a", N(1))
	it.Set("b", N(2))
	it.Set("a", N(3))
	if len(it) != 2 || it.Get("a").Num != 3 || it.Get("b").Num != 2 {
		t.Fatalf("after Set x3: %v", it)
	}
	it.Remove("a")
	it.Remove("missing")
	if _, ok := it.Lookup("a"); ok || len(it) != 1 {
		t.Fatalf("after Remove: %v", it)
	}
	it.Set("a", N(4))
	if len(it) != 2 || it.Get("a").Num != 4 {
		t.Fatalf("after re-Set: %v", it)
	}

	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	dup := Item{{Name: "v", V: N(1)}, {Name: "w", V: N(2)}, {Name: "v", V: N(3)}}
	tbl.SeedPut("seeded", dup)
	k.Go("client", func() {
		if err := tbl.Put(ctx, "put", dup, nil); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	k.Run()
	for _, key := range []string{"seeded", "put"} {
		got, _ := tbl.Peek(key)
		if len(got) != 2 || got.Get("v").Num != 3 || got.Get("w").Num != 2 {
			t.Errorf("%s stored %v, want one v (the last) and one w", key, got)
		}
	}
}

// TestItemCloneAllocations pins the cost of the copy every Get, Update and
// stream record makes: one allocation for the attribute list plus one per
// non-empty list value. A map-backed item costs more than ten here.
func TestItemCloneAllocations(t *testing.T) {
	it := Item{
		{Name: "exists", V: N(1)}, {Name: "version", V: N(2)}, {Name: "cversion", V: N(3)},
		{Name: "czxid", V: N(4)}, {Name: "mzxid", V: N(5)}, {Name: "pzxid", V: N(6)},
		{Name: "eph", V: S("session-1")}, {Name: "seq", V: N(7)},
		{Name: "children", V: StrList("a", "b", "c")}, {Name: "pending", V: NumList(8, 9)},
	}
	var sink Item
	if got := testing.AllocsPerRun(100, func() { sink = it.Clone() }); got > 3 {
		t.Fatalf("Clone of a 10-attribute item with two lists: %v allocations, want at most 3", got)
	}
	if sink.String() != it.String() || sink.Size() != it.Size() {
		t.Fatalf("clone differs: %v vs %v", sink, it)
	}
}

// TestGetViewsIsOneRoundTrip: the batched read draws each item's latency as
// GetView would, in key order, so on a same-seed kernel a loop of GetView
// calls gives the per-item latencies to compare against. The batch takes as
// long as its slowest item — not the sum — bills one read per key at
// GetView's price, and returns the same items, nil for the missing key.
func TestGetViewsIsOneRoundTrip(t *testing.T) {
	keys := []string{"small", "missing", "large", "mid"}
	seed := func(tbl *Table) {
		tbl.SeedPut("small", Item{{Name: "d", V: B(make([]byte, 16))}})
		tbl.SeedPut("large", Item{{Name: "d", V: B(make([]byte, 64*1024))}})
		tbl.SeedPut("mid", Item{{Name: "d", V: B(make([]byte, 4*1024))}})
	}
	for _, consistent := range []bool{true, false} {
		k, env, ctx := newEnv(11)
		tbl := NewTable(env, "state")
		seed(tbl)
		var each []sim.Time
		single := make([]Item, len(keys))
		k.Go("loop", func() {
			for i, key := range keys {
				t0 := k.Now()
				single[i], _ = tbl.GetView(ctx, key, consistent)
				each = append(each, k.Now()-t0)
			}
		})
		k.Run()

		k2, env2, ctx2 := newEnv(11)
		tbl2 := NewTable(env2, "state")
		seed(tbl2)
		batch := make([]Item, len(keys))
		var took sim.Time
		k2.Go("batch", func() {
			t0 := k2.Now()
			tbl2.GetViews(ctx2, keys, consistent, batch)
			took = k2.Now() - t0
		})
		k2.Run()

		var slowest, sum sim.Time
		for _, d := range each {
			slowest, sum = max(slowest, d), sum+d
		}
		if took != slowest || took >= sum {
			t.Errorf("consistent=%v: the batch took %v; its items alone take %v (slowest %v, sum %v)", consistent, took, each, slowest, sum)
		}
		if got, want := env2.Meter.Count("kv.read"), int64(len(keys)); got != want || env.Meter.Count("kv.read") != want {
			t.Errorf("consistent=%v: %d reads billed, want one per key (%d)", consistent, got, want)
		}
		if got, want := env2.Meter.Cost("kv.read"), env.Meter.Cost("kv.read"); got != want {
			t.Errorf("consistent=%v: the batch billed $%v, the loop of GetView calls $%v", consistent, got, want)
		}
		for i, key := range keys {
			if !reflect.DeepEqual(batch[i], single[i]) {
				t.Errorf("consistent=%v: %s: batch read %v, GetView %v", consistent, key, batch[i], single[i])
			}
		}
		if batch[1] != nil || batch[0] == nil {
			t.Errorf("consistent=%v: missing key read as %v, present key as %v", consistent, batch[1], batch[0])
		}
	}
}

// TestGetViewsSeesCommitDuringItsSleep: the views are taken when the round
// trip ends, so a write that commits while the batch is in flight is in it
// (the leader's opening read relies on this: an earlier read is only a
// staler poll, never a view older than its own return).
func TestGetViewsSeesCommitDuringItsSleep(t *testing.T) {
	k, env, ctx := newEnv(5)
	tbl := NewTable(env, "state")
	tbl.SeedPut("n", Item{{Name: "v", V: N(1)}})
	tbl.SeedPut("other", Item{{Name: "v", V: N(0)}})
	var committed sim.Time
	k.Go("writer", func() {
		k.Sleep(sim.Ms(20))
		if err := tbl.Put(ctx, "n", Item{{Name: "v", V: N(2)}}, nil); err != nil {
			t.Errorf("put: %v", err)
		}
		committed = k.Now()
	})
	type read struct {
		start, end sim.Time
		v          int64
	}
	var reads []read
	k.Go("reader", func() {
		out := make([]Item, 2)
		for k.Now() < sim.Ms(60) {
			t0 := k.Now()
			tbl.GetViews(ctx, []string{"other", "n"}, true, out)
			reads = append(reads, read{t0, k.Now(), out[1].Get("v").Num})
		}
	})
	k.Run()
	straddled := false
	for _, r := range reads {
		want := int64(1)
		if r.end >= committed {
			want = 2
		}
		if r.v != want {
			t.Errorf("read [%v, %v] returned v=%d, want %d (the write committed at %v)", r.start, r.end, r.v, want, committed)
		}
		straddled = straddled || (r.start < committed && committed <= r.end)
	}
	if !straddled {
		t.Fatalf("no read was in flight when the write committed at %v: %v", committed, reads)
	}
}
