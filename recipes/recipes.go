// Package recipes implements the classic ZooKeeper coordination recipes on
// top of the ZooKeeper client interface (faaskeeper.Session): distributed
// mutex, leader election, double barrier, and a distributed FIFO queue. They
// exercise exactly the primitives the paper highlights (ephemeral +
// sequential nodes, one-shot watches, conditional versions) and run
// unchanged on the serverless deployment and on the baseline ensemble.
package recipes

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"faaskeeper"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// ErrNotHeld is returned when unlocking a mutex that is not held.
var ErrNotHeld = errors.New("recipes: lock not held")

// Mutex is the ZooKeeper lock recipe: ephemeral sequential children under
// a lock node; the smallest sequence holds the lock, every waiter watches
// only its predecessor (no herd effect).
type Mutex struct {
	sim    *faaskeeper.Simulation
	client faaskeeper.Session
	root   string
	myNode string
}

// NewMutex creates a mutex rooted at root (the node must exist).
func NewMutex(s *faaskeeper.Simulation, c faaskeeper.Session, root string) *Mutex {
	return &Mutex{sim: s, client: c, root: root}
}

// Lock blocks until the calling session holds the mutex.
func (m *Mutex) Lock() error {
	if m.myNode != "" {
		return fmt.Errorf("recipes: mutex already held via %s", m.myNode)
	}
	name, err := m.client.Create(m.root+"/lock-", nil,
		faaskeeper.FlagEphemeral|faaskeeper.FlagSequential)
	if err != nil {
		return err
	}
	m.myNode = name
	for {
		kids, err := m.client.GetChildren(m.root)
		if err != nil {
			return err
		}
		sort.Strings(kids)
		mine := znode.Base(m.myNode)
		idx := sort.SearchStrings(kids, mine)
		if idx >= len(kids) || kids[idx] != mine {
			m.myNode = ""
			return fmt.Errorf("recipes: lock node %s vanished", mine)
		}
		if idx == 0 {
			return nil
		}
		pred := m.root + "/" + kids[idx-1]
		gone := sim.NewFuture[struct{}](m.sim.Kernel())
		st, err := m.client.ExistsW(pred, func(faaskeeper.Notification) {
			gone.TryComplete(struct{}{})
		})
		if err != nil {
			return err
		}
		if st != nil {
			gone.Wait()
		}
	}
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() error {
	if m.myNode == "" {
		return ErrNotHeld
	}
	err := m.client.Delete(m.myNode, -1)
	m.myNode = ""
	return err
}

// Election is the leader-election recipe. Each candidate calls Campaign
// once; the callback fires when (and each time) this candidate becomes the
// leader.
type Election struct {
	sim    *faaskeeper.Simulation
	client faaskeeper.Session
	root   string
	myNode string
	onLead func()
	led    bool
}

// NewElection creates an election rooted at root (the node must exist).
func NewElection(s *faaskeeper.Simulation, c faaskeeper.Session, root string, onLead func()) *Election {
	return &Election{sim: s, client: c, root: root, onLead: onLead}
}

// Campaign enters the election; it returns once the candidate is either
// leading (callback invoked) or parked behind a predecessor watch.
func (e *Election) Campaign() error {
	if e.myNode == "" {
		name, err := e.client.Create(e.root+"/cand-", nil,
			faaskeeper.FlagEphemeral|faaskeeper.FlagSequential)
		if err != nil {
			return err
		}
		e.myNode = name
	}
	kids, err := e.client.GetChildren(e.root)
	if err != nil {
		return err
	}
	sort.Strings(kids)
	mine := znode.Base(e.myNode)
	idx := sort.SearchStrings(kids, mine)
	if idx == 0 {
		if !e.led {
			e.led = true
			e.onLead()
		}
		return nil
	}
	pred := e.root + "/" + kids[idx-1]
	st, err := e.client.ExistsW(pred, func(faaskeeper.Notification) {
		_ = e.Campaign() // predecessor left: re-evaluate
	})
	if err != nil {
		return err
	}
	if st == nil {
		return e.Campaign()
	}
	return nil
}

// Leading reports whether this candidate has become the leader.
func (e *Election) Leading() bool { return e.led }

// Resign leaves the election (deleting the candidate node).
func (e *Election) Resign() error {
	if e.myNode == "" {
		return nil
	}
	err := e.client.Delete(e.myNode, -1)
	e.myNode = ""
	e.led = false
	return err
}

// Barrier is the double-barrier recipe: Enter blocks until `count`
// participants arrived; Leave blocks until everyone left. The last party to
// arrive creates a ready node, which releases the others: counting arrivals
// is not enough, because once a released party has left again, one still
// counting never sees the barrier full. No party may be named "ready".
type Barrier struct {
	sim    *faaskeeper.Simulation
	client faaskeeper.Session
	root   string
	name   string
	count  int
}

// NewBarrier creates a barrier under root for the given participant count.
func NewBarrier(s *faaskeeper.Simulation, c faaskeeper.Session, root, name string, count int) *Barrier {
	return &Barrier{sim: s, client: c, root: root, name: name, count: count}
}

// readyNode is the child of a barrier's root that says it is full.
const readyNode = "ready"

// parties counts the participants among a barrier root's children.
func parties(kids []string) int {
	if slices.Contains(kids, readyNode) {
		return len(kids) - 1
	}
	return len(kids)
}

// Enter registers this participant and waits for the barrier to fill.
func (b *Barrier) Enter() error {
	ready := b.root + "/" + readyNode
	filled := sim.NewFuture[struct{}](b.sim.Kernel())
	st, err := b.client.ExistsW(ready, func(faaskeeper.Notification) { filled.TryComplete(struct{}{}) })
	if err != nil {
		return err
	}
	if _, err := b.client.Create(b.root+"/"+b.name, nil, faaskeeper.FlagEphemeral); err != nil || st != nil {
		return err
	}
	kids, err := b.client.GetChildren(b.root)
	if err != nil {
		return err
	}
	if parties(kids) < b.count {
		filled.Wait()
		return nil
	}
	if _, err := b.client.Create(ready, nil, 0); err != nil && !errors.Is(err, faaskeeper.ErrNodeExists) {
		return err
	}
	return nil
}

// Leave removes this participant and waits until the barrier drains.
func (b *Barrier) Leave() error {
	if err := b.client.Delete(b.root+"/"+b.name, -1); err != nil && !errors.Is(err, faaskeeper.ErrNoNode) {
		return err
	}
	for {
		left := sim.NewFuture[struct{}](b.sim.Kernel())
		kids, err := b.client.GetChildrenW(b.root, func(faaskeeper.Notification) {
			left.TryComplete(struct{}{})
		})
		if err != nil {
			return err
		}
		if parties(kids) == 0 {
			return nil
		}
		left.Wait()
	}
}

// Queue is the distributed FIFO queue recipe over sequential nodes.
type Queue struct {
	sim    *faaskeeper.Simulation
	client faaskeeper.Session
	root   string
}

// NewQueue creates a queue rooted at root (the node must exist).
func NewQueue(s *faaskeeper.Simulation, c faaskeeper.Session, root string) *Queue {
	return &Queue{sim: s, client: c, root: root}
}

// Put enqueues a payload.
func (q *Queue) Put(data []byte) error {
	_, err := q.client.Create(q.root+"/item-", data, faaskeeper.FlagSequential)
	return err
}

// Take dequeues the oldest item, blocking while the queue is empty.
func (q *Queue) Take() ([]byte, error) {
	for {
		more := sim.NewFuture[struct{}](q.sim.Kernel())
		kids, err := q.client.GetChildrenW(q.root, func(faaskeeper.Notification) {
			more.TryComplete(struct{}{})
		})
		if err != nil {
			return nil, err
		}
		if len(kids) == 0 {
			more.Wait()
			continue
		}
		sort.Strings(kids)
		for _, kid := range kids {
			path := q.root + "/" + kid
			data, _, err := q.client.GetData(path)
			if errors.Is(err, faaskeeper.ErrNoNode) {
				continue // another consumer won this item
			}
			if err != nil {
				return nil, err
			}
			if err := q.client.Delete(path, -1); errors.Is(err, faaskeeper.ErrNoNode) {
				continue
			} else if err != nil {
				return nil, err
			}
			return data, nil
		}
	}
}
