package queue

// An invariant the sharded leader pipeline leans on: Receive honors both
// the caller's max and the technology's batch cap on every queue kind. (A
// failed batch is retried in place by faas.deliver, never put back.)

import (
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// TestReceiveHonorsMaxBatch: an explicit max below the cap limits the
// batch, max <= 0 and oversized max clamp to the technology's MaxBatch,
// and no delivered batch ever exceeds it — on both queue kinds.
func TestReceiveHonorsMaxBatch(t *testing.T) {
	for _, kind := range []cloud.QueueKind{cloud.QueueFIFO, cloud.QueueStandard} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			k, env, ctx := newEnv(22)
			q := New(env, "caps", kind)
			cap := q.MaxBatch()
			if cap <= 0 {
				t.Fatalf("MaxBatch = %d", cap)
			}
			var sizes []int
			k.Go("driver", func() {
				for i := 0; i < 3*cap+5; i++ {
					q.Send(ctx, "s", []byte("x"))
				}
				k.Sleep(sim.Ms(2000))
				// Explicit small max.
				b, _ := q.Receive(2)
				sizes = append(sizes, len(b))
				// Oversized max clamps to the cap.
				b, _ = q.Receive(10 * cap)
				sizes = append(sizes, len(b))
				// Default (0) also clamps to the cap.
				b, _ = q.Receive(0)
				sizes = append(sizes, len(b))
				q.Close()
				for {
					b, ok := q.Receive(0)
					if !ok {
						return
					}
					sizes = append(sizes, len(b))
				}
			})
			k.Run()
			k.Shutdown()
			if sizes[0] != 2 {
				t.Errorf("Receive(2) delivered %d", sizes[0])
			}
			if sizes[1] != cap {
				t.Errorf("Receive(%d) delivered %d, want the cap %d", 10*cap, sizes[1], cap)
			}
			if sizes[2] != cap {
				t.Errorf("Receive(0) delivered %d, want the cap %d", sizes[2], cap)
			}
			total := 0
			for _, s := range sizes {
				total += s
				if s > cap {
					t.Errorf("batch of %d exceeds cap %d", s, cap)
				}
			}
			if total != 3*cap+5 {
				t.Errorf("drained %d of %d", total, 3*cap+5)
			}
		})
	}
}
