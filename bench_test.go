package faaskeeper

// One benchmark per table and figure of the paper's evaluation: each runs
// the corresponding experiment end to end inside the simulator (quick
// repetition counts) and reports wall-clock cost plus, where meaningful,
// the key simulated metric as a custom unit. Run a single one with e.g.
//
//	go test -bench BenchmarkFig9WriteLatency -benchmem
//
// and regenerate the full paper-style tables with cmd/fkrepro.
import (
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/experiments"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(experiments.RunConfig{Seed: int64(i + 1), Quick: true})
		if len(rep.Sections) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Table 1 and Table 4 (static/analytic).
func BenchmarkTab1FeatureMatrix(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTab4CostModel(b *testing.B)     { benchExperiment(b, "tab4") }

// Figure 4: storage cost and latency.
func BenchmarkFig4aStorageCost(b *testing.B)    { benchExperiment(b, "fig4a") }
func BenchmarkFig4bStorageLatency(b *testing.B) { benchExperiment(b, "fig4b") }

// Figure 5: ZooKeeper utilization under HBase/YCSB.
func BenchmarkFig5ZKUtilization(b *testing.B) { benchExperiment(b, "fig5") }

// Table 6a / Figure 6b: synchronization primitives.
func BenchmarkTab6aSyncPrimitives(b *testing.B) { benchExperiment(b, "tab6a") }
func BenchmarkFig6bLockThroughput(b *testing.B) { benchExperiment(b, "fig6b") }

// Figure 7: serverless queues.
func BenchmarkFig7aQueueLatency(b *testing.B)    { benchExperiment(b, "fig7a") }
func BenchmarkFig7bQueueThroughput(b *testing.B) { benchExperiment(b, "fig7b") }
func BenchmarkFig7cQueueLatencyGCP(b *testing.B) { benchExperiment(b, "fig7c") }

// Figures 8-12 / Table 3: FaaSKeeper vs ZooKeeper data paths.
func BenchmarkFig8ReadLatency(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9WriteLatency(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10TimeDistribution(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTab3Variability(b *testing.B)       { benchExperiment(b, "tab3") }
func BenchmarkFig11HybridWrites(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12GCPWrites(b *testing.B)        { benchExperiment(b, "fig12") }

// Figure 13: heartbeat monitoring.
func BenchmarkFig13Heartbeat(b *testing.B) { benchExperiment(b, "fig13") }

// Figure 14: the cost-ratio grids.
func BenchmarkFig14CostRatio(b *testing.B) { benchExperiment(b, "fig14") }

// Section 5.3.2 resource-configuration ablations.
func BenchmarkSec532xResourceConfig(b *testing.B) { benchExperiment(b, "sec532x") }

// Section 6 requirement ablations (R1/R4, R6, R8).
func BenchmarkAblationsRequirements(b *testing.B) { benchExperiment(b, "ablations") }

// Sharded leader pipeline write scaling (beyond the paper).
func BenchmarkShardingWriteScaling(b *testing.B) { benchExperiment(b, "sharding") }

// Read-path cache tier (beyond the paper).
func BenchmarkCachingReadTier(b *testing.B) { benchExperiment(b, "caching") }

// Batching distributor (beyond the paper).
func BenchmarkBatchingDistributor(b *testing.B) { benchExperiment(b, "batching") }

// Cross-shard multi() transactions (beyond the paper).
func BenchmarkTxnCoordinator(b *testing.B) { benchExperiment(b, "txn") }

// --- micro-benchmarks of the implementation itself (real time) ---

// The three shapes of a process switch, to be run at one and several OS
// threads (go test -bench 'Sim|KVConditionalUpdate' -cpu 1,2): a process
// that is its own next event (KernelEvents), two processes handing the
// baton back and forth (HandOff), and a process that is spawned, runs and
// exits (Spawn).

// BenchmarkSimKernelEvents measures raw simulator event throughput.
func BenchmarkSimKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	k.Go("ticker", func() {
		for {
			k.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	k.RunFor(time.Duration(b.N) * time.Millisecond)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSimHandOff measures one process-to-process switch: two processes
// ping-pong through a pair of queues, two hand-offs per round trip.
func BenchmarkSimHandOff(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	ping, pong := sim.NewQueue[int](k), sim.NewQueue[int](k)
	k.Go("echo", func() {
		for {
			v, ok := ping.Pop()
			if !ok {
				return
			}
			pong.Push(v)
		}
	})
	k.Go("driver", func() {
		for i := 0; i < b.N; i += 2 {
			ping.Push(i)
			pong.Pop()
		}
		ping.Close()
	})
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSimSpawn measures a process's whole life: spawn, first dispatch,
// completing a future its parent waits on, exit.
func BenchmarkSimSpawn(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	k.Go("parent", func() {
		for i := 0; i < b.N; i++ {
			f := sim.NewFuture[int](k)
			k.Go("child", func() { f.Complete(i) })
			f.Wait()
		}
	})
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkZNodeCodec measures the node serialization hot path.
func BenchmarkZNodeCodec(b *testing.B) {
	n := &znode.Node{
		Path:     "/services/api/config",
		Data:     make([]byte, 1024),
		Stat:     znode.Stat{Czxid: 10, Mzxid: 99, Version: 3},
		Children: []string{"a", "b", "c", "d"},
	}
	epoch := []int64{1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := znode.Marshal(n, epoch)
		if _, _, err := znode.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVConditionalUpdate measures the system store's core operation.
func BenchmarkKVConditionalUpdate(b *testing.B) {
	k := sim.NewKernel(1)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	tbl := kv.NewTable(env, "bench")
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("bench", func() {
		for i := 0; i < b.N; i++ {
			_, err := tbl.Update(ctx, "n",
				[]kv.Update{kv.Set{Name: "lock", V: kv.N(int64(i))}},
				kv.Or{kv.AttrNotExists{Name: "nope"}})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	k.Run()
	b.StopTimer()
	k.Shutdown()
}
