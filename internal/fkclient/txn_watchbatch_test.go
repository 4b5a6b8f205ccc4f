package fkclient

// Watch-delivery batching for cross-shard transactions: one post-apply
// delivery batch per participant shard instead of one deferred goroutine
// (and one epoch exit per region) per fired watch.

import (
	"fmt"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// TestTxnWatchDeliveryBatching: a cross-shard multi() fires several
// watches on one shard; all of them deliver exactly once, the epoch
// counters drain, and the deliveries were folded into per-shard batches
// (TxnWatchStats), not per-watch waiters.
func TestTxnWatchDeliveryBatching(t *testing.T) {
	run(t, 99, core.Config{WriteShards: 4}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")

		// Three watched paths on one shard, one on another: the multi
		// spans shards (cross-shard commit) and one shard carries three fired watches.
		shards := []int{}
		groupA := []string{}
		var pathB string
		next := 0
		for len(groupA) < 3 || pathB == "" {
			p := fmt.Sprintf("/w%d", next)
			next++
			s := core.ShardOf(p, 4)
			if len(groupA) == 0 {
				shards = append(shards, s)
				groupA = append(groupA, p)
				continue
			}
			if s == shards[0] && len(groupA) < 3 {
				groupA = append(groupA, p)
				continue
			}
			if s != shards[0] && pathB == "" {
				pathB = p
			}
		}
		all := append(append([]string{}, groupA...), pathB)
		for _, p := range all {
			if _, err := writer.Create(p, []byte("v0"), 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		fired := map[string]int{}
		for _, p := range all {
			p := p
			if _, _, err := watcher.GetDataW(p, func(n core.Notification) {
				fired[p]++
				// Z4: the post-notification read observes the transaction.
				data, _, err := watcher.GetData(p)
				if err != nil || string(data) != "v1" {
					t.Errorf("read after notify on %s: %q %v", p, data, err)
				}
			}); err != nil {
				t.Fatalf("watch %s: %v", p, err)
			}
		}

		ops := make([]txn.Op, 0, len(all))
		for _, p := range all {
			ops = append(ops, txn.SetData(p, []byte("v1"), -1))
		}
		if _, err := writer.Multi(ops...); err != nil {
			t.Fatalf("multi: %v", err)
		}
		k.Sleep(5 * sim.Ms(1000))

		for _, p := range all {
			if fired[p] != 1 {
				t.Errorf("watch on %s fired %d times, want 1", p, fired[p])
			}
		}
		// All ids must have left the epoch counters after delivery.
		ep, _ := d.Epoch(cloud.ClientCtx(d.Cfg.Profile.Home), d.Cfg.Profile.Home)
		if len(ep) != 0 {
			t.Errorf("epoch counters not drained: %v", ep)
		}
		// The regression: 4 deliveries folded into exactly 2 per-shard
		// batches (one per participant shard with fired watches) — the
		// pre-batching pipeline spawned one waiter per watch.
		batches, deliveries := d.TxnWatchStats()
		if deliveries != int64(len(all)) {
			t.Errorf("deliveries = %d, want %d", deliveries, len(all))
		}
		if batches != 2 {
			t.Errorf("delivery batches = %d, want 2 (one per participant shard)", batches)
		}
		watcher.Close()
		writer.Close()
	})
}
