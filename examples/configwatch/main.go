// Configwatch: the paper's motivating scenario — a fleet of services
// consumes configuration from the coordination service and reacts to
// updates through watches, while an operator occasionally rolls out new
// versions. Request volume is tiny and bursty: exactly the workload where
// a serverless deployment costs a fraction of three always-on VMs.
//
// The whole configuration lives in ONE node here, so each rollout is a
// single atomic set_data. A config split across several nodes must NOT be
// rolled out as sequential set_data calls — readers would observe torn
// half-updated states between them. See examples/atomicswap for the
// multi() transaction that swaps a multi-node config atomically.
package main

import (
	"fmt"
	"time"

	"faaskeeper"
	"faaskeeper/internal/costmodel"
)

const workers = 8

func main() {
	sim := faaskeeper.NewSimulation(7)
	deployment := sim.DeployFaaSKeeper(faaskeeper.DeploymentOptions{UserStore: faaskeeper.StoreHybrid})

	reloads := 0
	sim.Go(func() {
		operator, err := deployment.Connect("operator")
		if err != nil {
			panic(err)
		}
		operator.Create("/service", nil, 0)
		operator.Create("/service/config", []byte("v1"), 0)

		// Each worker watches the config node and re-arms its watch on
		// every change, as a real consumer would.
		for i := 0; i < workers; i++ {
			id := fmt.Sprintf("worker-%d", i)
			w, err := deployment.Connect(id)
			if err != nil {
				panic(err)
			}
			var arm func()
			arm = func() {
				_, _, err := w.GetDataW("/service/config", func(n faaskeeper.Notification) {
					data, _, _ := w.GetData("/service/config")
					fmt.Printf("[t=%7v] %s reloaded config %q\n", sim.Now().Truncate(time.Millisecond), id, data)
					reloads++
					arm()
				})
				if err != nil {
					panic(err)
				}
			}
			arm()
		}

		// The operator ships three config versions over an hour.
		for v := 2; v <= 4; v++ {
			sim.Sleep(20 * time.Minute)
			if _, err := operator.SetData("/service/config", []byte(fmt.Sprintf("v%d", v)), -1); err != nil {
				panic(err)
			}
			fmt.Printf("[t=%7v] operator rolled out v%d\n", sim.Now().Truncate(time.Millisecond), v)
		}
		sim.Sleep(5 * time.Second)
		operator.Close()
	})
	sim.Run()
	sim.Shutdown()

	fmt.Printf("\n%d watch-driven reloads across %d workers\n", reloads, workers)
	fmt.Printf("one hour of coordination cost $%.6f pay-as-you-go\n", deployment.TotalCost())
	m := costmodel.NewAWSModel(512)
	z := costmodel.ZooKeeperDeployment{P: m.P, Servers: 3, InstanceType: "t3.small", DiskGB: 20}
	fmt.Printf("three always-on t3.small VMs would cost $%.4f for the same hour\n", z.TotalDailyCost()/24)
}
