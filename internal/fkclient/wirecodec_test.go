package fkclient

// Randomized end-to-end coverage of the feature matrix (batching × caching
// × transactions) at seeds and flag products no other suite runs. The tests were written to prove the pipeline survives the swap to
// the binary codec; with one codec they stay as additional search, minus
// the rows whose configuration and assertions another test already runs
// (plain: TestConsistencyRandomizedHistories; sharded:
// TestShardedRandomizedHistories, seed 404 included).

import (
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

func TestFeatureMatrixRandomizedHistories(t *testing.T) {
	matrix := []struct {
		name string
		cfg  core.Config
	}{
		{"batching", core.Config{BatchWrites: true}},
		{"caching", core.Config{CacheMode: core.CacheTwoLevel, UserStore: core.StoreKV}},
		{"hybrid-store", core.Config{UserStore: core.StoreHybrid}},
		{"sharded-batching-caching", core.Config{
			WriteShards: 4, BatchWrites: true,
			CacheMode: core.CacheTwoLevel, UserStore: core.StoreKV,
		}},
	}
	for _, mc := range matrix {
		for _, seed := range []int64{404, 808} {
			mc, seed := mc, seed
			t.Run(fmt.Sprintf("%s/seed%d", mc.name, seed), func(t *testing.T) {
				obs, d := randomHistory(t, seed, mc.cfg, 4, 12)
				if mc.cfg.WriteShards <= 1 {
					// Z2's global txid check does not apply across
					// shards (the sharding suite's standing caveat).
					verifyZ2(t, obs)
				}
				verifyTreeIntegrity(t, d)
			})
		}
	}
}

// TestRandomizedHistoriesExtraSeeds runs the randomized consistency
// workload at two more seeds, on two shards and on one.
func TestRandomizedHistoriesExtraSeeds(t *testing.T) {
	_, d := randomHistory(t, 1212, core.Config{WriteShards: 2}, 4, 12)
	verifyTreeIntegrity(t, d)
	obs, d1 := randomHistory(t, 1313, core.Config{}, 4, 12)
	verifyZ2(t, obs)
	verifyTreeIntegrity(t, d1)
}

// TestWireCodecConfigRejected pins the config validation of the inert
// Config.WireCodec name: "" and "binary" deploy, anything else — the
// deleted "gob" included — fails fast at deployment time instead of
// silently running a format the caller did not ask for.
func TestWireCodecConfigRejected(t *testing.T) {
	for _, name := range []string{"", "binary"} {
		k := sim.NewKernel(1)
		core.NewDeployment(k, core.Config{WireCodec: name})
		k.Shutdown()
	}
	for _, name := range []string{"protobuf", "gob"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WireCodec %q accepted", name)
				}
			}()
			core.NewDeployment(sim.NewKernel(1), core.Config{WireCodec: name})
		}()
	}
}
