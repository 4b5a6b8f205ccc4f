package sim

import (
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	k.Go("consumer", func() {
		for i := 0; i < 5; i++ {
			v, ok := q.Pop()
			if !ok {
				t.Errorf("unexpected close")
				return
			}
			got = append(got, v)
		}
	})
	k.Go("producer", func() {
		for i := 0; i < 5; i++ {
			k.Sleep(time.Millisecond)
			q.Push(i)
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("len %d", len(got))
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k)
	var at Time
	k.Go("consumer", func() {
		q.Pop()
		at = k.Now()
	})
	k.Go("producer", func() {
		k.Sleep(7 * time.Millisecond)
		q.Push("x")
	})
	k.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("popped at %v", at)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var ok bool
	var at Time
	k.Go("consumer", func() {
		_, ok = q.PopTimeout(3 * time.Millisecond)
		at = k.Now()
	})
	k.Run()
	if ok || at != 3*time.Millisecond {
		t.Fatalf("ok=%v at=%v", ok, at)
	}
}

func TestQueuePopTimeoutDeliversEarlyPush(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var v int
	var ok bool
	k.Go("consumer", func() { v, ok = q.PopTimeout(10 * time.Millisecond) })
	k.Go("producer", func() {
		k.Sleep(2 * time.Millisecond)
		q.Push(9)
	})
	k.Run()
	if !ok || v != 9 {
		t.Fatalf("v=%d ok=%v", v, ok)
	}
}

func TestQueueClose(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	q.Push(1)
	var vals []int
	var closedSeen bool
	k.Go("consumer", func() {
		for {
			v, ok := q.Pop()
			if !ok {
				closedSeen = true
				return
			}
			vals = append(vals, v)
		}
	})
	k.Go("closer", func() {
		k.Sleep(time.Millisecond)
		q.Close()
	})
	k.Run()
	if !closedSeen || len(vals) != 1 {
		t.Fatalf("closed=%v vals=%v", closedSeen, vals)
	}
}

func TestQueuePopBatchCollectsBuffered(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	for i := 0; i < 7; i++ {
		q.Push(i)
	}
	var batch, again []int
	k.Go("poller", func() {
		batch = q.PopBatch(nil, 5, 0)
		if len(batch) != 5 || batch[0] != 0 || batch[4] != 4 {
			t.Errorf("batch = %v", batch)
			return
		}
		// The next batch lands in the first one's buffer.
		again = q.PopBatch(batch[:0:5], 5, 0)
	})
	k.Run()
	if len(again) != 2 || again[0] != 5 || again[1] != 6 || &again[0] != &batch[0] {
		t.Fatalf("second batch = %v, want [5 6] in the first one's buffer", again)
	}
	if q.Len() != 0 {
		t.Fatalf("left %d", q.Len())
	}
}

func TestQueuePopBatchWindowGathersLateArrivals(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var batch []int
	k.Go("poller", func() { batch = q.PopBatch(nil, 10, 5*time.Millisecond) })
	k.Go("producer", func() {
		q.Push(0)
		k.Sleep(2 * time.Millisecond)
		q.Push(1)
		k.Sleep(10 * time.Millisecond) // outside the window
		q.Push(2)
	})
	k.Run()
	if len(batch) != 2 {
		t.Fatalf("batch = %v", batch)
	}
}

func TestTwoConsumersShareItemsWithoutLoss(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	seen := map[int]bool{}
	consume := func() {
		for {
			v, ok := q.Pop()
			if !ok {
				return
			}
			if seen[v] {
				t.Errorf("duplicate %d", v)
			}
			seen[v] = true
			k.Sleep(time.Millisecond)
		}
	}
	k.Go("c1", consume)
	k.Go("c2", consume)
	k.Go("producer", func() {
		for i := 0; i < 20; i++ {
			q.Push(i)
			k.Sleep(time.Millisecond / 2)
		}
		q.Close()
	})
	k.Run()
	if len(seen) != 20 {
		t.Fatalf("saw %d items", len(seen))
	}
}
