// Distributedlock: the ZooKeeper lock recipe on FaaSKeeper. Contenders
// enqueue ephemeral sequential nodes under the lock; the holder is the
// smallest sequence number, and each waiter watches its predecessor. The
// example runs several contenders over a shared critical section and
// verifies mutual exclusion.
package main

import (
	"fmt"
	"sort"
	"time"

	"faaskeeper"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

const lockRoot = "/locks/resource"

type mutex struct {
	c      *faaskeeper.Client
	myNode string
	s      *faaskeeper.Simulation
}

// Lock blocks until this contender owns the lock.
func (m *mutex) Lock() error {
	name, err := m.c.Create(lockRoot+"/lock-", nil, faaskeeper.FlagEphemeral|faaskeeper.FlagSequential)
	if err != nil {
		return err
	}
	m.myNode = name
	for {
		kids, err := m.c.GetChildren(lockRoot)
		if err != nil {
			return err
		}
		sort.Strings(kids)
		mine := znode.Base(m.myNode)
		idx := sort.SearchStrings(kids, mine)
		if idx == 0 {
			return nil // we hold the lock
		}
		pred := lockRoot + "/" + kids[idx-1]
		released := sim.NewFuture[struct{}](m.s.Kernel())
		st, err := m.c.ExistsW(pred, func(faaskeeper.Notification) {
			released.TryComplete(struct{}{})
		})
		if err != nil {
			return err
		}
		if st != nil {
			released.Wait() // predecessor still holds it: wait for deletion
		}
	}
}

// Unlock releases the lock.
func (m *mutex) Unlock() error {
	err := m.c.Delete(m.myNode, -1)
	m.myNode = ""
	return err
}

func main() {
	s := faaskeeper.NewSimulation(23)
	deployment := s.DeployFaaSKeeper(faaskeeper.DeploymentOptions{UserStore: faaskeeper.StoreHybrid})

	const contenders = 4
	const rounds = 3
	inCritical := 0
	maxInCritical := 0
	acquisitions := 0

	s.Go(func() {
		setup, _ := deployment.Connect("setup")
		setup.Create("/locks", nil, 0)
		setup.Create(lockRoot, nil, 0)

		done := sim.NewWaitGroup(s.Kernel())
		for i := 0; i < contenders; i++ {
			id := fmt.Sprintf("worker-%d", i)
			done.Go(id, func() {
				cl, err := deployment.Connect(id)
				if err != nil {
					panic(err)
				}
				defer cl.Close()
				m := &mutex{c: cl, s: s}
				for r := 0; r < rounds; r++ {
					if err := m.Lock(); err != nil {
						panic(id + ": " + err.Error())
					}
					inCritical++
					if inCritical > maxInCritical {
						maxInCritical = inCritical
					}
					acquisitions++
					fmt.Printf("[t=%8v] %s acquired (round %d)\n", s.Now().Truncate(time.Millisecond), id, r+1)
					s.Sleep(250 * time.Millisecond) // critical section
					inCritical--
					if err := m.Unlock(); err != nil {
						panic(id + ": unlock: " + err.Error())
					}
				}
			})
		}
		done.Wait()
		setup.Close()
	})
	s.Run()
	s.Shutdown()

	fmt.Printf("\n%d acquisitions, max concurrent holders = %d\n", acquisitions, maxInCritical)
	if maxInCritical != 1 || acquisitions != contenders*rounds {
		fmt.Println("MUTUAL EXCLUSION VIOLATED")
	} else {
		fmt.Println("mutual exclusion held")
	}
}
