package fksync

import (
	"errors"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
)

func setup(seed int64) (*sim.Kernel, *cloud.Env, *kv.Table, cloud.Ctx) {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	tbl := kv.NewTable(env, "system")
	return k, env, tbl, cloud.ClientCtx(cloud.RegionAWSHome)
}

func TestLockMutualExclusion(t *testing.T) {
	k, env, tbl, ctx := setup(1)
	m := NewLockManager(env, tbl, time.Second)
	holders := 0
	maxHolders := 0
	for i := 0; i < 5; i++ {
		k.Go("worker", func() {
			l, _, err := m.AcquireWait(ctx, "node:/x", 0)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			holders++
			if holders > maxHolders {
				maxHolders = holders
			}
			k.Sleep(10 * sim.Ms(1))
			holders--
			if err := m.Release(ctx, l); err != nil {
				t.Errorf("release: %v", err)
			}
		})
	}
	k.Run()
	if maxHolders != 1 {
		t.Fatalf("max concurrent holders = %d", maxHolders)
	}
}

func TestLockExpiresAndCanBeStolen(t *testing.T) {
	k, env, tbl, ctx := setup(2)
	m := NewLockManager(env, tbl, 500*time.Millisecond)
	k.Go("crashy", func() {
		_, _, err := m.Acquire(ctx, "node:/x")
		if err != nil {
			t.Errorf("first acquire: %v", err)
		}
		// Crashes without releasing.
	})
	var stolen bool
	k.Go("second", func() {
		k.Sleep(50 * sim.Ms(1))
		if _, _, err := m.Acquire(ctx, "node:/x"); !errors.Is(err, ErrLockHeld) {
			t.Errorf("early steal should fail: %v", err)
		}
		k.Sleep(600 * sim.Ms(1)) // past the lease
		if _, _, err := m.Acquire(ctx, "node:/x"); err != nil {
			t.Errorf("steal after expiry: %v", err)
		} else {
			stolen = true
		}
	})
	k.Run()
	if !stolen {
		t.Fatal("expired lock was not reacquired")
	}
}

func TestExpiredHolderCannotCommit(t *testing.T) {
	// The paper: "To prevent accidental overwriting after losing the lock,
	// each update to a locked resource compares the stored timestamp."
	k, env, tbl, ctx := setup(3)
	m := NewLockManager(env, tbl, 200*time.Millisecond)
	k.Go("slow", func() {
		l, _, err := m.Acquire(ctx, "node:/x")
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		k.Sleep(400 * sim.Ms(1)) // lease expires mid-work
		// Meanwhile "fast" stole the lock below.
		_, err = m.CommitUnlock(ctx, l, []kv.Update{kv.Set{Name: "v", V: kv.N(1)}})
		if !errors.Is(err, ErrLockLost) {
			t.Errorf("stale commit err = %v, want ErrLockLost", err)
		}
	})
	k.Go("fast", func() {
		k.Sleep(250 * sim.Ms(1))
		l, _, err := m.Acquire(ctx, "node:/x")
		if err != nil {
			t.Errorf("steal: %v", err)
			return
		}
		if _, err := m.CommitUnlock(ctx, l, []kv.Update{kv.Set{Name: "v", V: kv.N(2)}}); err != nil {
			t.Errorf("fresh commit: %v", err)
		}
	})
	k.Run()
	it, _ := tbl.Peek("node:/x")
	if it.Get("v").Num != 2 {
		t.Fatalf("v = %v, stale writer overwrote", it.Get("v"))
	}
	if _, hasLock := it.Lookup(LockAttr); hasLock {
		t.Fatal("lock attr not cleared")
	}
}

func TestCommitUnlockAppliesAtomically(t *testing.T) {
	k, env, tbl, ctx := setup(4)
	m := NewLockManager(env, tbl, time.Second)
	k.Go("w", func() {
		l, _, _ := m.Acquire(ctx, "node:/x")
		_, err := m.CommitUnlock(ctx, l, []kv.Update{
			kv.Set{Name: "v", V: kv.N(7)},
			kv.ListAppend{Name: "pending", Vals: []int64{3}},
		})
		if err != nil {
			t.Errorf("commit: %v", err)
		}
		// Lock released: immediate re-acquire must succeed.
		if _, _, err := m.Acquire(ctx, "node:/x"); err != nil {
			t.Errorf("reacquire: %v", err)
		}
	})
	k.Run()
	it, _ := tbl.Peek("node:/x")
	if it.Get("v").Num != 7 || len(it.Get("pending").NL) != 1 {
		t.Fatalf("item = %v", it)
	}
}

func TestCommitUnlockTxMultiNode(t *testing.T) {
	k, env, tbl, ctx := setup(5)
	m := NewLockManager(env, tbl, time.Second)
	k.Go("w", func() {
		ln, _, _ := m.Acquire(ctx, "node:/parent/child")
		lp, _, _ := m.Acquire(ctx, "node:/parent")
		err := m.CommitUnlockTx(ctx, []TxPart{
			{Lock: ln, Updates: []kv.Update{kv.Set{Name: "exists", V: kv.N(1)}}},
			{Lock: lp, Updates: []kv.Update{kv.StrListAppend{Name: "children", Vals: []string{"child"}}}},
		})
		if err != nil {
			t.Errorf("tx: %v", err)
		}
	})
	k.Run()
	child, _ := tbl.Peek("node:/parent/child")
	parent, _ := tbl.Peek("node:/parent")
	if child.Get("exists").Num != 1 {
		t.Fatalf("child = %v", child)
	}
	if len(parent.Get("children").SL) != 1 || parent.Get("children").SL[0] != "child" {
		t.Fatalf("parent = %v", parent)
	}
	if _, locked := parent.Lookup(LockAttr); locked {
		t.Fatal("parent still locked")
	}
}

func TestCommitUnlockTxFailsAtomically(t *testing.T) {
	k, env, tbl, ctx := setup(6)
	m := NewLockManager(env, tbl, time.Second)
	k.Go("w", func() {
		ln, _, _ := m.Acquire(ctx, "node:/a")
		stale := Lock{Key: "node:/b", Timestamp: 1} // never acquired
		err := m.CommitUnlockTx(ctx, []TxPart{
			{Lock: ln, Updates: []kv.Update{kv.Set{Name: "v", V: kv.N(1)}}},
			{Lock: stale, Updates: []kv.Update{kv.Set{Name: "v", V: kv.N(2)}}},
		})
		if !errors.Is(err, ErrLockLost) {
			t.Errorf("tx err = %v", err)
		}
	})
	k.Run()
	a, _ := tbl.Peek("node:/a")
	if a.Get("v").Num != 0 {
		t.Fatalf("partial tx applied: %v", a)
	}
}

func TestAtomicCounter(t *testing.T) {
	k, env, tbl, ctx := setup(7)
	c := NewCounter(tbl, "fxid", "v")
	results := map[int64]bool{}
	for i := 0; i < 10; i++ {
		k.Go("inc", func() {
			v, err := c.Add(ctx, 1)
			if err != nil {
				t.Errorf("add: %v", err)
				return
			}
			if results[v] {
				t.Errorf("duplicate counter value %d", v)
			}
			results[v] = true
		})
	}
	k.Run()
	_ = env
	if len(results) != 10 || !results[10] {
		t.Fatalf("results = %v", results)
	}
	k2 := sim.NewKernel(8)
	env2 := cloud.NewEnv(k2, cloud.AWSProfile())
	tbl2 := kv.NewTable(env2, "t")
	c2 := NewCounter(tbl2, "x", "v")
	k2.Go("read", func() {
		if v, _ := c2.Get(cloud.ClientCtx(cloud.RegionAWSHome), true); v != 0 {
			t.Errorf("unset counter = %d", v)
		}
	})
	k2.Run()
}

func TestAtomicList(t *testing.T) {
	k, env, tbl, ctx := setup(9)
	_ = env
	l := NewList(tbl, "epoch:us-east-1", "w")
	k.Go("w", func() {
		if got, _ := l.Append(ctx, 1, 2); len(got) != 2 {
			t.Errorf("append: %v", got)
		}
		if got, _ := l.Append(ctx, 3); len(got) != 3 {
			t.Errorf("append: %v", got)
		}
		got, _ := l.Remove(ctx, 2)
		if len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Errorf("remove: %v", got)
		}
		if got, _ := l.Get(ctx, true); len(got) != 2 {
			t.Errorf("get: %v", got)
		}
	})
	k.Run()
}

func TestLockLatencyMatchesPaperShape(t *testing.T) {
	// Table 6a: locking a 64 kB item is much slower than a 1 kB item, and
	// the conditional update adds ~2.5 ms to the median regular write.
	k, env, tbl, ctx := setup(10)
	m := NewLockManager(env, tbl, time.Second)
	var lockSmall, lockLarge, plain sim.Time
	k.Go("bench", func() {
		tbl.Put(ctx, "small", kv.Item{{Name: "d", V: kv.B(make([]byte, 1024))}}, nil)
		tbl.Put(ctx, "large", kv.Item{{Name: "d", V: kv.B(make([]byte, 64*1024))}}, nil)
		n := 60
		t0 := k.Now()
		for i := 0; i < n; i++ {
			l, _, _ := m.Acquire(ctx, "small")
			m.Release(ctx, l)
		}
		lockSmall = (k.Now() - t0) / sim.Time(2*n)
		t0 = k.Now()
		for i := 0; i < n; i++ {
			l, _, _ := m.Acquire(ctx, "large")
			m.Release(ctx, l)
		}
		lockLarge = (k.Now() - t0) / sim.Time(2*n)
		t0 = k.Now()
		for i := 0; i < n; i++ {
			tbl.Update(ctx, "small", []kv.Update{kv.Set{Name: "x", V: kv.N(1)}}, nil)
		}
		plain = (k.Now() - t0) / sim.Time(n)
	})
	k.Run()
	if lockLarge < 5*lockSmall {
		t.Fatalf("64kB lock %v not >> 1kB lock %v", lockLarge, lockSmall)
	}
	if lockSmall <= plain {
		t.Fatalf("conditional lock %v not slower than plain write %v", lockSmall, plain)
	}
	if d := sim.DurMs(lockSmall - plain); d < 1 || d > 6 {
		t.Fatalf("conditional surcharge = %.2f ms, want ~2.5", d)
	}
}
