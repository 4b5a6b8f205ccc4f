// Package conform is one conformance suite for the ZooKeeper client
// interface (faaskeeper.Session), run against FaaSKeeper and the baseline
// ZooKeeper ensemble alike. Its five groups follow libkv's store tests
// (Common, Atomic, Watch, Lock, and Session in place of TTL), and each
// session works in its own namespace, as zkbench's clients do. Where the
// systems answer differently on purpose, README's divergence table says so.
package conform

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"faaskeeper"
)

// Connect opens a session on the system under test, from inside a
// simulated process. id is a hint: a system may name the session itself.
type Connect func(id string) (faaskeeper.Session, error)

// Deploy starts the system under test in a fresh simulation.
type Deploy func(s *faaskeeper.Simulation) Connect

// A case runs in its own simulation for at most caseMinutes of virtual
// time; settle is how long it waits for asynchronous effects (a watch
// callback, a commit reaching another server's replica).
const (
	caseMinutes = 60
	settle      = 5 * time.Second
)

type testCase struct {
	name string
	run  func(e *env)
}

// Run runs every group's cases against the system deploy starts, each case
// a subtest of its group's.
func Run(t *testing.T, deploy Deploy) {
	groups := []struct {
		name  string
		cases []testCase
	}{
		{"Common", common}, {"Atomic", atomic}, {"Watch", watch}, {"Lock", lock}, {"Session", session},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for _, c := range g.cases {
				t.Run(c.name, func(t *testing.T) { runCase(t, deploy, "/"+strings.ToLower(g.name+"-"+c.name), c.run) })
			}
		})
	}
}

func runCase(t *testing.T, deploy Deploy, root string, body func(e *env)) {
	s := faaskeeper.NewSimulation(1)
	e := &env{T: t, s: s, connect: deploy(s), root: root}
	done := false
	s.Go(func() { body(e); done = true })
	// A baseline ensemble never goes idle: run a minute at a time.
	for i := 0; i < caseMinutes && !done; i++ {
		s.RunFor(time.Minute)
	}
	s.Shutdown()
	if !done && !t.Failed() {
		t.Fatal("case did not finish within the horizon")
	}
}

// env is one case's simulation and the sessions it opened.
type env struct {
	*testing.T
	s       *faaskeeper.Simulation
	connect Connect
	root    string
	n       int
}

// Client is one session of a case, confined to its namespace.
type Client struct {
	faaskeeper.Session
	NS string
}

// client connects a session and sets up its namespace.
func (e *env) client() *Client {
	e.n++
	s, err := e.connect(fmt.Sprintf("client%d", e.n))
	if err != nil {
		e.Fatalf("connect: %v", err)
	}
	c := &Client{Session: s, NS: fmt.Sprintf("%s/client%d", e.root, e.n)}
	if err := c.Setup(); err != nil {
		e.Fatalf("setup %s: %v", c.NS, err)
	}
	return c
}

// P returns rel's path in the namespace ("" is the namespace itself).
func (c *Client) P(rel string) string {
	if rel == "" {
		return c.NS
	}
	return c.NS + "/" + rel
}

// Setup creates the namespace.
func (c *Client) Setup() error { return c.CreateR("", []byte("client "+c.ID())) }

// CreateR creates rel with data, creating any missing ancestor empty.
func (c *Client) CreateR(rel string, data []byte) error {
	path := c.P(rel)
	for i := 1; i < len(path); i++ {
		if path[i] != '/' {
			continue
		}
		if _, err := c.Create(path[:i], nil, 0); err != nil && !errors.Is(err, faaskeeper.ErrNodeExists) {
			return err
		}
	}
	_, err := c.Create(path, data, 0)
	return err
}

// Cleanup deletes the namespace's subtree and closes the session.
func (c *Client) Cleanup() error {
	if err := c.deleteR(c.NS); err != nil {
		return err
	}
	return c.Close()
}

func (c *Client) deleteR(path string) error {
	kids, err := c.GetChildren(path)
	if err != nil {
		return err
	}
	for _, k := range kids {
		if err := c.deleteR(path + "/" + k); err != nil {
			return err
		}
	}
	return c.Delete(path, -1)
}

// cleanup ends every given session, failing the case on an error.
func (e *env) cleanup(cs ...*Client) {
	for _, c := range cs {
		if err := c.Cleanup(); err != nil {
			e.Errorf("cleanup %s: %v", c.NS, err)
		}
	}
}

// is checks that err matches want (nil for success).
func (e *env) is(what string, err, want error) {
	e.Helper()
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		e.Errorf("%s: %v, want %v", what, err, want)
	}
}

// must fails the case when err is not nil.
func (e *env) must(what string, err error) {
	e.Helper()
	if err != nil {
		e.Fatalf("%s: %v", what, err)
	}
}

func (e *env) equal(what string, got, want any) {
	e.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		e.Errorf("%s = %v, want %v", what, got, want)
	}
}

// events records the notifications a callback receives, as "event path".
type events []string

func (ev *events) cb(n faaskeeper.Notification) { *ev = append(*ev, fmt.Sprint(n.Event, " ", n.Path)) }
