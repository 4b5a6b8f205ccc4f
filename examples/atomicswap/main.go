// Atomicswap: an operator rolls a service's configuration forward in two
// halves that live on DIFFERENT write shards — the endpoint map and the
// feature flags must advance together. The racy classic is two sequential
// set_data calls: a reader between them observes generation g's endpoints
// with generation g+1's flags (exactly the hazard the configwatch example
// works around by keeping everything in one node). With multi() the swap
// is one cross-shard transaction — a version guard on the rollout pointer
// plus both writes — committed atomically by the two-phase coordinator
// (package txn), so the checkers' reverse-order reads can never observe a
// torn pair. Concurrent operators race the same guard: exactly one swap
// wins each round and the loser retries against the new state.
package main

import (
	"fmt"
	"time"

	"faaskeeper"
)

const checkers = 6

// gen parses a config value's generation number ("v3" -> 3).
func gen(b []byte) int {
	n := 0
	for _, ch := range b[1:] {
		n = n*10 + int(ch-'0')
	}
	return n
}

func main() {
	sim := faaskeeper.NewSimulation(11)
	deployment := sim.DeployFaaSKeeper(faaskeeper.DeploymentOptions{
		UserStore:   faaskeeper.StoreKV,
		WriteShards: 4,
	})

	mismatches, reads := 0, 0
	sim.Go(func() {
		operator, err := deployment.Connect("operator")
		if err != nil {
			panic(err)
		}
		// /endpoints and /flags hash to different shards; /active is the
		// guarded pointer every swap must win.
		operator.Create("/endpoints", []byte("v0"), 0)
		operator.Create("/flags", []byte("v0"), 0)
		operator.Create("/active", []byte("v0"), 0)

		// Checkers continuously read both halves; a mismatch would be the
		// torn state the racy two-step pattern exposes.
		stop := false
		for i := 0; i < checkers; i++ {
			id := fmt.Sprintf("checker-%d", i)
			c, err := deployment.Connect(id)
			if err != nil {
				panic(err)
			}
			sim.Go(func() {
				for !stop {
					// Read in REVERSE write order: the transaction writes
					// /endpoints before /flags, so if a checker sees flags
					// at generation g, endpoints must already be at >= g —
					// anything less is a torn (partially applied) swap. The
					// two-step pattern breaks this constantly; one atomic
					// multi() never does.
					fl, _, err1 := c.GetData("/flags")
					ep, _, err2 := c.GetData("/endpoints")
					if err1 == nil && err2 == nil {
						reads++
						if gen(ep) < gen(fl) {
							mismatches++
							fmt.Printf("[t=%7v] %s saw TORN config: endpoints=%s flags=%s\n",
								sim.Now().Truncate(time.Millisecond), id, ep, fl)
						}
					}
					sim.Sleep(40 * time.Millisecond)
				}
			})
		}

		// The operator rolls out five generations; each swap guards on the
		// pointer's version so concurrent tooling cannot double-flip.
		for round := 1; round <= 5; round++ {
			sim.Sleep(700 * time.Millisecond)
			_, st, err := operator.GetData("/active")
			if err != nil {
				panic(err)
			}
			next := fmt.Sprintf("v%d", round)
			results, err := operator.Multi(
				faaskeeper.CheckOp("/active", st.Version),
				faaskeeper.SetDataOp("/endpoints", []byte(next), -1),
				faaskeeper.SetDataOp("/flags", []byte(next), -1),
				faaskeeper.SetDataOp("/active", []byte(next), st.Version),
			)
			if err != nil {
				fmt.Printf("[t=%7v] swap to %s lost the guard (%v), retrying next round\n",
					sim.Now().Truncate(time.Millisecond), next, err)
				continue
			}
			fmt.Printf("[t=%7v] swapped both halves to %s (txids %d/%d)\n",
				sim.Now().Truncate(time.Millisecond), next, results[1].Txid, results[2].Txid)
		}
		sim.Sleep(300 * time.Millisecond)
		stop = true
		operator.Close()
	})
	sim.Run()
	sim.Shutdown()

	fmt.Printf("\n%d paired reads, %d torn configs observed (must be 0)\n", reads, mismatches)
	fmt.Printf("total cost $%.6f pay-as-you-go\n", deployment.TotalCost())
	if mismatches != 0 {
		panic("atomic swap exposed a torn configuration")
	}
}
