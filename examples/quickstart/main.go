// Quickstart: deploy a simulated FaaSKeeper, create and read nodes, leave
// a watch, observe the pay-as-you-go bill.
package main

import (
	"fmt"
	"sort"
	"time"

	"faaskeeper"
)

func main() {
	sim := faaskeeper.NewSimulation(1)
	deployment := sim.DeployFaaSKeeper(faaskeeper.DeploymentOptions{})

	sim.Go(func() {
		client, err := deployment.Connect("quickstart")
		if err != nil {
			panic(err)
		}
		defer client.Close()

		// Writes travel through the session queue, the follower function,
		// the leader queue, and the leader function before landing in the
		// user store (Algorithms 1 and 2 of the paper).
		if _, err := client.Create("/app", []byte("root"), 0); err != nil {
			panic(err)
		}
		if _, err := client.Create("/app/config", []byte("timeout=30"), 0); err != nil {
			panic(err)
		}

		// Reads bypass functions entirely: the client fetches straight
		// from cloud storage.
		data, stat, err := client.GetData("/app/config")
		if err != nil {
			panic(err)
		}
		fmt.Printf("read %q (version %d, mzxid %d) at virtual t=%v\n",
			data, stat.Version, stat.Mzxid, sim.Now())

		// Watches push one-shot notifications.
		client.GetDataW("/app/config", func(n faaskeeper.Notification) {
			fmt.Printf("watch: %s on %s (txid %d) at t=%v\n", n.Event, n.Path, n.Txid, sim.Now())
		})
		if _, err := client.SetData("/app/config", []byte("timeout=60"), stat.Version); err != nil {
			panic(err)
		}

		// Conditional updates reject stale versions.
		if _, err := client.SetData("/app/config", []byte("nope"), 0); err != nil {
			fmt.Println("stale write rejected:", err)
		}

		children, _ := client.GetChildren("/app")
		fmt.Println("children of /app:", children)

		sim.Sleep(2 * time.Second) // drain the notification
	})
	sim.Run()
	sim.Shutdown()

	fmt.Printf("\nvirtual time elapsed: %v\n", sim.Now())
	fmt.Printf("total pay-as-you-go cost: $%.6f\n", deployment.TotalCost())
	costs := deployment.CostBreakdown()
	cats := make([]string, 0, len(costs))
	for cat := range costs {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Printf("  %-16s $%.7f\n", cat, costs[cat])
	}
}
