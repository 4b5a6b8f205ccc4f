// Leaderelection: the classic ZooKeeper recipe (recipes.Election) on
// FaaSKeeper — candidates create ephemeral sequential nodes and the
// smallest sequence number leads; everyone else watches its predecessor.
// When the leader's session dies, the next candidate is notified and takes
// over.
package main

import (
	"fmt"
	"time"

	"faaskeeper"
	"faaskeeper/recipes"
)

const electionRoot = "/election"

func main() {
	sim := faaskeeper.NewSimulation(11)
	deployment := sim.DeployFaaSKeeper(faaskeeper.DeploymentOptions{
		HeartbeatEvery: 30 * time.Second, // evicts crashed leaders
	})

	var leaders []string
	sim.Go(func() {
		setup, _ := deployment.Connect("setup")
		setup.Create(electionRoot, nil, 0)

		clients := make([]*faaskeeper.Client, 3)
		for i := range clients {
			id := fmt.Sprintf("node-%d", i)
			cl, err := deployment.Connect(id)
			if err != nil {
				panic(err)
			}
			clients[i] = cl
			e := recipes.NewElection(sim, cl, electionRoot, func() {
				fmt.Printf("[t=%7v] %s is now the leader\n", sim.Now().Truncate(time.Millisecond), id)
				leaders = append(leaders, id)
			})
			if err := e.Campaign(); err != nil {
				panic(err)
			}
			sim.Sleep(time.Second)
		}

		// The current leader crashes; the heartbeat function notices the
		// dead session and removes its ephemeral node, promoting the next.
		sim.Sleep(5 * time.Second)
		fmt.Printf("[t=%7v] killing %s\n", sim.Now().Truncate(time.Millisecond), leaders[0])
		clients[0].Crash()

		sim.Sleep(3 * time.Minute)
		setup.Close()
	})
	sim.RunFor(10 * time.Minute)
	sim.Shutdown()

	fmt.Printf("\nleadership history: %v\n", leaders)
	if len(leaders) < 2 {
		fmt.Println("WARNING: failover did not happen")
	}
}
