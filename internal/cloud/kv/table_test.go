package kv

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
		if !ok || it.Get("x").Num() != 7 || it.Get("s").Str() != "hello" {
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
		it.Get("b").Byt()[0] = 99
		it2, _ := tbl.Get(ctx, "a", true)
		if it2.Get("b").Byt()[0] != 1 {
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
		if it.Get("v").Num() != 1 {
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
		if it.Get("n").Num() != 10 {
			t.Errorf("counter = %d", it.Get("n").Num())
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
		got := it.Get("xs").NL()
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
		if it.Get("xs").NL()[0] != 3 {
			t.Fatalf("after pop: %v", it.Get("xs").NL())
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
		if len(it.Get("kids").SL()) != 1 || it.Get("kids").SL()[0] != "b" {
			t.Fatalf("kids = %v", it.Get("kids").SL())
		}
	})
	k.Run()
}

// TestMoveTable: Move appends From's list to To's and removes From, in the
// one update; a missing or empty From leaves the item as it was. Its
// payload is nothing, so a move bills the stored item's size alone: the
// item below, over 1 100 bytes, costs two 1 KB write units, a move or none.
func TestMoveTable(t *testing.T) {
	pad := Attr{Name: "pad", V: B(make([]byte, 1100))}
	for _, tc := range []struct {
		name      string
		item, out Item
	}{
		{"into a new group", Item{pad, {Name: "w", V: StrList("a", "b")}},
			Item{pad, {Name: "f", V: StrList("a", "b")}}},
		{"into a group that holds sessions", Item{pad, {Name: "w", V: StrList("a")}, {Name: "f", V: StrList("x")}},
			Item{pad, {Name: "f", V: StrList("x", "a")}}},
		{"a missing group", Item{pad, {Name: "f", V: StrList("x")}},
			Item{pad, {Name: "f", V: StrList("x")}}},
		{"an empty group", Item{pad, {Name: "w", V: StrList()}},
			Item{pad, {Name: "w", V: StrList()}}},
	} {
		k, env, ctx := newEnv(1)
		tbl := NewTable(env, "state")
		tbl.SeedPut("n", tc.item)
		var got Item
		var err error
		k.Go("client", func() {
			_, err = tbl.Update(ctx, "n", []Update{&Move{From: "w", To: "f"}}, nil)
			got, _ = tbl.Peek("n")
		})
		k.Run()
		if err != nil || got.String() != tc.out.String() {
			t.Errorf("move of %s: %v, %v; want %v", tc.name, got, err, tc.out)
		}
		if units := env.Meter.Cost("kv.write") / env.Profile.Pricing.KVWritePerUnit; math.Round(units) != 2 {
			t.Errorf("move of %s billed %v write units, want 2: the item's size alone", tc.name, units)
		}
	}
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
			vals = append(vals, it.Get("n").Num())
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
			if it.Get("n").Num() != int64(i) {
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
		if &v1.Get("b").Byt()[0] != &v2.Get("b").Byt()[0] {
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
		if it.Get("v").Num() != 1 {
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
		if ita.Get("v").Num() != 2 || itb.Get("v").Num() != 9 {
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
			if v1.NL()[0] == ns[0] {
				return false
			}
		}
		if len(ss) > 0 {
			ss[0] += "x"
			if v2.SL()[0] == ss[0] {
				return false
			}
		}
		if len(bs) > 0 {
			bs[0]++
			if v3.Byt()[0] == bs[0] {
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

// TestClosedSetsDispatchEveryForm: every Update and Cond type of the
// package, by value and in each pointer form callers build, goes through
// Table.Update, Transact and Delete (whose switches have no default, so a
// form they miss panics), with the result of calling its own method.
func TestClosedSetsDispatchEveryForm(t *testing.T) {
	base := Item{
		{Name: "v", V: N(5)}, {Name: "nl", V: NumList(7, 8, 7)},
		{Name: "sl", V: StrList("a", "b")}, {Name: "b", V: B([]byte{1})},
	}
	updates := []Update{
		Set{"v", N(9)}, Set{"new", S("x")}, Remove{"v"}, Add{"v", 3}, Add{"c", 1},
		ListAppend{"nl", []int64{1, 2}}, ListRemove{"nl", []int64{7}}, ListPopHead{"nl"},
		StrListAppend{"sl", []string{"c"}}, StrListRemove{"sl", []string{"a"}},
		Move{"sl", "to"}, Move{"gone", "to"},
	}
	conds := []Cond{
		Exists{}, NotExists{}, AttrNotExists{"v"}, AttrNotExists{"w"}, Eq{"v", N(5)}, Eq{"v", N(6)},
		NumLt{"v", 6}, NumLt{"v", 5}, NumListHeadEq{"nl", 7}, NumListHeadEq{"nl", 8},
		And{Exists{}, Eq{"v", N(5)}}, And{Exists{}, NumLt{"v", 1}},
		Or{NotExists{}, Eq{"v", N(5)}}, Or{NotExists{}, NumLt{"v", 1}},
	}
	// The pointer forms: core's commit scratch and the leader's claim round
	// keep these actions in reused memory.
	for _, u := range updates {
		switch u.(type) {
		case Set, ListAppend, Remove, Move:
			p := reflect.New(reflect.TypeOf(u))
			p.Elem().Set(reflect.ValueOf(u))
			updates = append(updates, p.Interface().(Update))
		}
	}

	// Every type the package declares is in the lists.
	declared := map[string]string{} // type name -> "Update" or "Cond"
	f, err := parser.ParseFile(token.NewFileSet(), "expr.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
			if set := map[string]string{"Apply": "Update", "Eval": "Cond"}[fn.Name.Name]; set != "" {
				declared[fmt.Sprint(fn.Recv.List[0].Type)] = set
			}
		}
	}
	listed := map[string]bool{}
	for _, u := range updates {
		listed[reflect.Indirect(reflect.ValueOf(u)).Type().Name()] = true
	}
	for _, c := range conds {
		listed[reflect.TypeOf(c).Name()] = true
	}
	for name, set := range declared {
		if !listed[name] {
			t.Errorf("%s %s is missing from this test", set, name)
		}
	}

	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		for i, u := range updates {
			want := u.Apply(base.Clone()).String()
			if got, want := updateSize(u), reflect.Indirect(reflect.ValueOf(u)).Interface().(Update).payloadSize(); got != want {
				t.Errorf("%T%v: table counts %d payload bytes, the action %d", u, u, got, want)
			}
			key := fmt.Sprint("u", i)
			tbl.SeedPut(key, base)
			if got, err := tbl.Update(ctx, key, []Update{u}, nil); err != nil || got.String() != want {
				t.Errorf("Update with %T%v: %v (%v), Apply gives %v", u, u, got, err, want)
			}
			tbl.SeedPut(key, base)
			if err := tbl.Transact(ctx, []TxOp{{Key: key, Updates: []Update{u}}}); err != nil {
				t.Errorf("Transact with %T%v: %v", u, u, err)
			} else if got, _ := tbl.Peek(key); got.String() != want {
				t.Errorf("Transact with %T%v: %v, Apply gives %v", u, u, got, want)
			}
		}
		for i, c := range conds {
			for _, exists := range []bool{true, false} {
				item := base
				if !exists {
					item = nil
				}
				want := c.Eval(item, exists)
				key := fmt.Sprint("c", i, exists)
				seed := func() {
					if exists {
						tbl.SeedPut(key, base)
					}
				}
				seed()
				_, err := tbl.Update(ctx, key, []Update{Set{"x", N(1)}}, c)
				if got := err == nil; got != want {
					t.Errorf("Update under %v on an item that exists=%v: passed %v (%v), Eval says %v", c, exists, got, err, want)
				}
				_ = tbl.Delete(ctx, key, nil)
				seed()
				err = tbl.Transact(ctx, []TxOp{{Key: key, Updates: []Update{Set{"x", N(1)}}, Cond: c}})
				if got := err == nil; got != want {
					t.Errorf("Transact under %v on an item that exists=%v: passed %v (%v), Eval says %v", c, exists, got, err, want)
				}
				_ = tbl.Delete(ctx, key, nil)
				seed()
				err = tbl.Delete(ctx, key, c)
				if got := err == nil; got != want {
					t.Errorf("Delete under %v on an item that exists=%v: passed %v (%v), Eval says %v", c, exists, got, err, want)
				}
				_ = tbl.Delete(ctx, key, nil)
			}
		}
	})
	k.Run()
}

// TestViewValidUntilItsReaderBlocks pins the view contract (package
// comment). Update returns the stored item itself, which equals the
// committed item and never aliases the caller's own argument slices. Once
// two later commits have pushed that version out of the row, its array is
// cleared for reuse: the stale view reads empty until the next commit of
// any row builds into it (TestStaleViewReadsAnotherRow); under the race
// detector it is poisoned instead (TestStaleViewPanicsUnderRace). Every value taken out
// of the view — bytes, a number list, a string list — stays as it was
// through later updates, a transaction and a put, which build into the
// retired arrays.
func TestViewValidUntilItsReaderBlocks(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		vals := []int64{1, 2}
		view, err := tbl.Update(ctx, "a", []Update{
			Set{"b", B([]byte{1, 2})},
			ListAppend{"nl", vals},
			StrListAppend{"sl", []string{"x", "y"}},
			Add{"n", 5},
		}, nil)
		if err != nil {
			t.Errorf("update: %v", err)
			return
		}
		vals[0] = 99 // the caller reuses its argument
		committed, _ := tbl.Peek("a")
		if &tbl.items["a"].cur[0] != &view[0] || view.String() != committed.String() {
			t.Errorf("Update returned %v, not the stored item %v", view, committed)
		}
		b, nl, sl := view.Get("b").Byt(), view.Get("nl").NL(), view.Get("sl").SL()
		want := fmt.Sprint(b, nl, sl)
		if want != "[1 2] [1 2] [x y]" {
			t.Errorf("values taken out of the view: %s", want)
		}

		later := [][]Update{
			{Set{"b", B([]byte{7})}, Add{"n", 1}},
			{ListAppend{"nl", []int64{3}}, StrListAppend{"sl", []string{"z"}}},
			{ListRemove{"nl", []int64{1}}, StrListRemove{"sl", []string{"x"}}},
			{ListPopHead{"nl"}, Remove{"b"}, Set{"new", N(1)}},
		}
		for i, ups := range later {
			if _, err := tbl.Update(ctx, "a", ups, nil); err != nil {
				t.Errorf("later update %d: %v", i, err)
			}
			if got := fmt.Sprint(b, nl, sl); got != want {
				t.Errorf("after later update %d the values taken out read %s, want %s", i, got, want)
			}
		}
		retired := Attr{}
		if poisonRetired {
			retired = poison
		}
		for i, a := range view {
			if a != retired {
				t.Errorf("retired version's attribute %d reads %v, want %v", i, a, retired)
			}
		}
		if err := tbl.Transact(ctx, []TxOp{{Key: "a", Updates: []Update{ListAppend{"nl", []int64{4}}}}}); err != nil {
			t.Errorf("transact: %v", err)
		}
		if err := tbl.Put(ctx, "a", Item{{Name: "b", V: B([]byte{9, 9})}}, nil); err != nil {
			t.Errorf("put: %v", err)
		}
		if got := fmt.Sprint(b, nl, sl); got != want {
			t.Errorf("after a transaction and a put the values taken out read %s, want %s", got, want)
		}
	})
	k.Run()
}

// TestStaleViewReadsAnotherRow documents what a view read after its
// contract sees: not an empty item, but whatever the table built into its
// retired array since. A view of /lock, held across two later commits of
// its row and one update of /node, reads /node's attributes — a lock's
// reader would find a node's owner where the holder was.
func TestStaleViewReadsAnotherRow(t *testing.T) {
	if poisonRetired {
		t.Skip("under the race detector a retired array is poisoned, not reused: TestStaleViewPanicsUnderRace")
	}
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		if err := tbl.Put(ctx, "/node", Item{{Name: "owner", V: S("s1")}}, nil); err != nil {
			t.Errorf("put: %v", err)
		}
		view, err := tbl.Update(ctx, "/lock", []Update{Set{"holder", S("s2")}, Set{"ts", N(1)}}, nil)
		if err != nil || view.Get("holder").Str() != "s2" {
			t.Errorf("update: %v %v", view, err)
			return
		}
		for ts := int64(2); ts <= 3; ts++ {
			if _, err := tbl.Update(ctx, "/lock", []Update{Set{"ts", N(ts)}}, nil); err != nil {
				t.Errorf("lock update %d: %v", ts, err)
			}
		}
		if _, err := tbl.Update(ctx, "/node", []Update{Set{"owner", S("s3")}}, nil); err != nil {
			t.Errorf("node update: %v", err)
		}
		if view.Get("holder").Str() != "" || view.Get("owner").Str() != "s3" {
			t.Errorf("the stale view of /lock reads %v, want /node's new attributes", view)
		}
	})
	k.Run()
}

// TestStaleViewPanicsUnderRace: under the race detector a view held across
// the two later commits of its row that retire its version panics on its
// next read, instead of reading whatever the table built into its array.
func TestStaleViewPanicsUnderRace(t *testing.T) {
	if !poisonRetired {
		t.Skip("a retired array is poisoned only under the race detector (go test -race)")
	}
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		view, err := tbl.Update(ctx, "/lock", []Update{Set{"holder", S("s2")}}, nil)
		if err != nil || view.Get("holder").Str() != "s2" {
			t.Errorf("update: %v %v", view, err)
			return
		}
		for ts := int64(1); ts <= 2; ts++ {
			if _, err := tbl.Update(ctx, "/lock", []Update{Set{"ts", N(ts)}}, nil); err != nil {
				t.Errorf("lock update %d: %v", ts, err)
			}
		}
		defer func() {
			if r := recover(); r != "kv view used after its reader blocked" {
				t.Errorf("the stale view's read recovered %v, want the kv view panic", r)
			}
		}()
		view.Get("holder")
	})
	k.Run()
}

// TestFailedWriteKeepsPrev: a failed condition and an item over the size
// limit spend at most the spare array; the row keeps both its versions, so
// an eventually consistent read can still return the previous one.
func TestFailedWriteKeepsPrev(t *testing.T) {
	k, env, ctx := newEnv(3)
	env.Profile.KVReplicaLag = time.Hour // every read within the window may lag
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		for v := int64(1); v <= 3; v++ { // the third commit retires a version: a spare exists
			if _, err := tbl.Update(ctx, "a", []Update{Set{"v", N(v)}}, nil); err != nil {
				t.Errorf("update %d: %v", v, err)
			}
		}
		if _, err := tbl.Update(ctx, "a", []Update{Set{"v", N(4)}}, Eq{"v", N(0)}); !errors.Is(err, ErrConditionFailed) {
			t.Errorf("update under a false condition: %v", err)
		}
		big := B(make([]byte, env.Profile.KVMaxItemB))
		if _, err := tbl.Update(ctx, "a", []Update{Set{"v", N(5)}, Set{"d", big}}, nil); !errors.Is(err, ErrItemTooLarge) {
			t.Errorf("update over the size limit: %v", err)
		}
		r := tbl.items["a"]
		if cur, prev := r.cur.Get("v").Num(), r.prev.Get("v").Num(); cur != 3 || prev != 2 || len(r.cur) != 1 || len(r.prev) != 1 {
			t.Errorf("after two failed writes the row holds %v over %v, want v=3 over v=2", r.cur, r.prev)
		}
		seen := map[int64]int{}
		for i := 0; i < 20; i++ {
			it, _ := tbl.GetView(ctx, "a", false)
			seen[it.Get("v").Num()]++
		}
		if seen[2] == 0 || seen[2]+seen[3] != 20 {
			t.Errorf("eventually consistent reads returned %v, want v=2 among them and nothing but v=2 and v=3", seen)
		}
	})
	k.Run()
}

// TestUpdateAllocations: a conditional Update of an existing item
// allocates nothing, with its action list and its condition built at the
// call, as every caller builds them: the table dispatches both by switch,
// so neither escapes. The new attribute list is built into the array of
// the version the commit before retired (Table.build), the stored slices
// are shared with the new version rather than copied, the committed item
// is returned without a second copy, and the meter category is not rebuilt
// per charge. A string-list action costs one, the list it stores, and not
// the one it names: a list built at the call stays on the caller's stack,
// which only holds while no action stores its own Name or a value it
// points to (applyUpdate's comment) — a whole-action leak in any of them
// makes every such list a heap allocation. History: each count was one
// higher while every commit copied its item into a new array (Item.next),
// as it still is under the race detector.
func TestUpdateAllocations(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	tbl.SeedPut("n", Item{
		{Name: "exists", V: N(1)}, {Name: "version", V: N(2)}, {Name: "mzxid", V: N(5)},
		{Name: "children", V: StrList("a", "b", "c")}, {Name: "pending", V: NumList(8)},
	})
	sessions := [...]string{"s0", "s1", "s2", "s3"}
	cases := []struct {
		name string
		want float64
		run  func(i int64) (Item, error)
	}{
		{"Set under Eq", 0, func(i int64) (Item, error) {
			return tbl.Update(ctx, "n", []Update{Set{"lock", N(i)}, Set{"mzxid", N(i)}}, Eq{"exists", N(1)})
		}},
		{"Set under Or{AttrNotExists, NumLt}", 0, func(i int64) (Item, error) {
			return tbl.Update(ctx, "n", []Update{Set{"lock", N(i)}, Set{"mzxid", N(i)}},
				Or{AttrNotExists{"lock"}, NumLt{"lock", i}})
		}},
		{"StrListAppend", 1, func(i int64) (Item, error) {
			return tbl.Update(ctx, "n", []Update{StrListAppend{"watchers", []string{sessions[i%4]}}}, nil)
		}},
		{"StrListRemove", 1, func(i int64) (Item, error) {
			return tbl.Update(ctx, "n", []Update{StrListRemove{"children", []string{sessions[i%4]}}}, nil)
		}},
	}
	var i int64 // the lock timestamp, rising across the runs
	for _, c := range cases {
		got := sim.AllocsPerRun(k, 200, func() {
			i++
			if _, err := c.run(i); err != nil {
				t.Errorf("update with %s: %v", c.name, err)
			}
		})
		if poisonRetired {
			c.want++ // a commit builds a new array: retired ones are poisoned, not reused
		}
		if got != c.want {
			t.Errorf("Update of an existing item with %s: %v allocations, want exactly %v", c.name, got, c.want)
		}
	}
}

// TestItemNamesStayUnique: Set, Remove and the table's write paths never
// leave two attributes with one name, whatever the caller's literal held.
func TestItemNamesStayUnique(t *testing.T) {
	var it Item
	it.Set("a", N(1))
	it.Set("b", N(2))
	it.Set("a", N(3))
	if len(it) != 2 || it.Get("a").Num() != 3 || it.Get("b").Num() != 2 {
		t.Fatalf("after Set x3: %v", it)
	}
	it.Remove("a")
	it.Remove("missing")
	if _, ok := it.Lookup("a"); ok || len(it) != 1 {
		t.Fatalf("after Remove: %v", it)
	}
	it.Set("a", N(4))
	if len(it) != 2 || it.Get("a").Num() != 4 {
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
		if len(got) != 2 || got.Get("v").Num() != 3 || got.Get("w").Num() != 2 {
			t.Errorf("%s stored %v, want one v (the last) and one w", key, got)
		}
	}
}

// TestItemCloneAllocations pins the cost of the copy every Get, Peek, Scan
// and stream record makes: one allocation for the attribute list plus one
// per non-empty list value. A map-backed item costs more than ten here.
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
			if !slices.EqualFunc(batch[i], single[i], func(a, b Attr) bool { return a.Name == b.Name && a.V.Equal(b.V) }) {
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
			reads = append(reads, read{t0, k.Now(), out[1].Get("v").Num()})
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

// TestCommitStoresANewKeyAsAClone: a key a caller passes often views a
// decoded message (a user-store path). A commit stores a new key as a
// clone, and an update of an existing one does not assign it again, so
// the stored key views neither caller's bytes.
func TestCommitStoresANewKeyAsAClone(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	first, second := []byte("/path"), []byte("/path")
	k.Go("client", func() {
		for _, b := range [][]byte{first, second} {
			if _, err := tbl.Update(ctx, unsafe.String(&b[0], len(b)), []Update{Add{Name: "v", Delta: 1}}, nil); err != nil {
				t.Errorf("update: %v", err)
			}
		}
	})
	k.Run()
	for key := range tbl.items {
		if p := unsafe.StringData(key); p == &first[0] || p == &second[0] {
			t.Errorf("stored key %q views a caller's bytes", key)
		}
	}
	if it, ok := tbl.Peek("/path"); !ok || it.Get("v").Num() != 2 || tbl.Len() != 1 {
		t.Errorf("Peek = %v, %v over %d keys; want v=2 under one key", it, ok, tbl.Len())
	}
}

// TestNameCopiesAreBounded: an attribute name minted per write — set once
// and removed once, like a watch epoch entry — is copied for its item but
// not kept in the table's copies past maxNames, and the item still reads
// and drops it by name. Past the bound a minted name costs no allocation of
// its own: the copies are cut from one block (nameCopies).
func TestNameCopiesAreBounded(t *testing.T) {
	k, env, ctx := newEnv(1)
	tbl := NewTable(env, "state")
	k.Go("client", func() {
		for i := 0; i < maxNames+100; i++ {
			name := fmt.Sprintf("e%d", i)
			if _, err := tbl.Update(ctx, "epoch", []Update{Set{Name: name, V: N(int64(i))}}, nil); err != nil {
				t.Errorf("set %s: %v", name, err)
			}
			it, err := tbl.Update(ctx, "epoch", []Update{Remove{Name: name}}, nil)
			if err != nil || len(it) != 0 {
				t.Errorf("remove %s: item %v, %v", name, it, err)
			}
		}
	})
	k.Run()
	if len(tbl.names.kept) != maxNames {
		t.Fatalf("the table keeps %d name copies, want the bound %d", len(tbl.names.kept), maxNames)
	}
	minted := make([]string, 301)
	for i := range minted {
		minted[i] = fmt.Sprintf("f%d.data", 1000000+i)
	}
	i := 0
	got := sim.AllocsPerRun(k, 300, func() {
		_, _ = tbl.Update(ctx, "epoch", []Update{Set{Name: minted[i], V: N(1)}}, nil)
		_, _ = tbl.Update(ctx, "epoch", []Update{Remove{Name: minted[i]}}, nil)
		i++
	})
	if poisonRetired {
		got -= 2 // each commit builds a new array: retired ones are poisoned, not reused
	}
	if got != 0 {
		t.Errorf("a name minted past the bound cost %v allocations to set and remove, want none", got)
	}
}
