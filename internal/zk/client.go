package zk

import (
	"errors"
	"fmt"
	"time"

	"faaskeeper/internal/cloud/network"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// Client-facing errors, mirroring the FaaSKeeper client so experiments can
// drive both systems through the same shape of API.
var (
	ErrNodeExists    = errors.New("zk: node already exists")
	ErrNoNode        = errors.New("zk: node does not exist")
	ErrBadVersion    = errors.New("zk: version mismatch")
	ErrNotEmpty      = errors.New("zk: node has children")
	ErrNoChildrenEph = errors.New("zk: ephemeral nodes cannot have children")
	ErrSessionClosed = errors.New("zk: session closed")
	ErrTimeout       = errors.New("zk: request timed out")
)

func codeError(c Code) error {
	switch c {
	case CodeOK:
		return nil
	case CodeNodeExists:
		return ErrNodeExists
	case CodeNoNode:
		return ErrNoNode
	case CodeBadVersion:
		return ErrBadVersion
	case CodeNotEmpty:
		return ErrNotEmpty
	case CodeNoChildrenEph:
		return ErrNoChildrenEph
	default:
		return ErrSessionClosed
	}
}

// requestTimeout bounds client waits.
const requestTimeout = 60 * time.Second

// WatchCallback receives one-shot watch events.
type WatchCallback func(WatchEvent)

type watchKind uint8

const (
	watchData watchKind = iota + 1
	watchExists
	watchChild
)

type clientWatchKey struct {
	path string
	kind watchKind
}

// Client is one ZooKeeper session, connected to a specific server.
type Client struct {
	ens     *Ensemble
	id      string
	end     *network.End[sessionMsg]
	nextSeq int64
	pending map[int64]*sim.Future[response]
	watches map[clientWatchKey]WatchCallback
	// events decouples callback execution from the I/O loop, like the
	// Java client's event thread: a callback may safely issue synchronous
	// operations (re-registering a watch, for example).
	events  *sim.Queue[WatchEvent]
	closed  bool
	crashed bool
}

// Connect opens a session against ensemble member serverIdx. It must be
// called from a sim process.
func Connect(e *Ensemble, serverIdx int) (*Client, error) {
	s := e.servers[serverIdx]
	if !s.alive {
		return nil, ErrSessionClosed
	}
	s.nextSessNum++
	id := fmt.Sprintf("zk-%d-%d", serverIdx, s.nextSessNum)
	conn := network.NewLANConn[sessionMsg](e.env)
	s.accept(id, conn.A())
	c := &Client{
		ens: e, id: id, end: conn.B(),
		pending: map[int64]*sim.Future[response]{},
		watches: map[clientWatchKey]WatchCallback{},
		events:  sim.NewQueue[WatchEvent](e.env.K),
	}
	e.env.K.Go("zk-client-"+id, c.responderLoop)
	e.env.K.Go("zk-events-"+id, c.eventLoop)
	e.env.K.Go("zk-pinger-"+id, c.pingLoop)
	return c, nil
}

// ID returns the session id.
func (c *Client) ID() string { return c.id }

func (c *Client) responderLoop() {
	for {
		pkt, ok := c.end.Recv()
		if !ok {
			c.events.Close()
			return
		}
		if c.crashed {
			continue
		}
		if m := pkt.Payload; m.isEvent {
			c.events.Push(m.event)
		} else if f, ok := c.pending[m.resp.Seq]; ok {
			delete(c.pending, m.resp.Seq)
			f.TryComplete(m.resp)
		}
	}
}

func (c *Client) eventLoop() {
	for {
		ev, ok := c.events.Pop()
		if !ok {
			return
		}
		c.dispatchEvent(ev)
	}
}

// dispatchEvent fires and clears the one-shot registrations the event
// consumes, matching ZooKeeper's semantics (a delete clears both data and
// exists watches, for example).
func (c *Client) dispatchEvent(ev WatchEvent) {
	var kinds []watchKind
	switch ev.Type {
	case EventCreated:
		kinds = []watchKind{watchExists}
	case EventDataChanged, EventDeleted:
		kinds = []watchKind{watchData, watchExists}
	case EventChildrenChanged:
		kinds = []watchKind{watchChild}
	}
	for _, kind := range kinds {
		key := clientWatchKey{path: ev.Path, kind: kind}
		if cb, ok := c.watches[key]; ok {
			delete(c.watches, key)
			if cb != nil {
				cb(ev)
			}
		}
	}
}

func (c *Client) pingLoop() {
	tick := c.ens.cfg.SessionTimeout / 3
	for {
		c.ens.env.K.Sleep(tick)
		if c.closed || c.crashed {
			return
		}
		c.call(request{Op: OpPing})
	}
}

// call sends one request and waits for its response.
func (c *Client) call(req request) (response, error) {
	if c.closed {
		return response{}, ErrSessionClosed
	}
	c.nextSeq++
	req.Seq = c.nextSeq
	f := sim.NewFuture[response](c.ens.env.K)
	c.pending[req.Seq] = f
	c.end.Send(sessionMsg{req: req}, req.wireSize())
	resp, ok := f.WaitTimeout(requestTimeout)
	if !ok {
		delete(c.pending, req.Seq)
		return response{}, ErrTimeout
	}
	return resp, nil
}

// Create creates a node and returns its final path.
func (c *Client) Create(path string, data []byte, flags znode.Flags) (string, error) {
	if err := c.check(path); err != nil {
		return "", err
	}
	resp, err := c.call(request{Op: OpCreate, Path: path, Data: data, Version: -1, Flags: flags})
	if err != nil {
		return "", err
	}
	return resp.Path, codeError(resp.Code)
}

// SetData replaces a node's data; version -1 matches any.
func (c *Client) SetData(path string, data []byte, version int32) (znode.Stat, error) {
	if err := c.check(path); err != nil {
		return znode.Stat{}, err
	}
	resp, err := c.call(request{Op: OpSetData, Path: path, Data: data, Version: version})
	if err != nil {
		return znode.Stat{}, err
	}
	return resp.Stat, codeError(resp.Code)
}

// Delete removes a node; version -1 matches any.
func (c *Client) Delete(path string, version int32) error {
	if err := c.check(path); err != nil {
		return err
	}
	resp, err := c.call(request{Op: OpDelete, Path: path, Version: version})
	if err != nil {
		return err
	}
	return codeError(resp.Code)
}

// Multi submits an atomic multi-op transaction: every sub-op commits at
// one zxid or the whole batch is rejected (the first failing op's error
// is returned). The baseline counterpart of FaaSKeeper's Multi.
func (c *Client) Multi(ops ...MultiOp) (znode.Stat, error) {
	for _, op := range ops {
		if err := c.check(op.Path); err != nil {
			return znode.Stat{}, err
		}
	}
	resp, err := c.call(request{Op: OpMulti, Path: "/", Version: -1, MultiOps: ops})
	if err != nil {
		return znode.Stat{}, err
	}
	return resp.Stat, codeError(resp.Code)
}

// GetData reads a node from the session's server replica.
func (c *Client) GetData(path string) ([]byte, znode.Stat, error) {
	return c.GetDataW(path, nil)
}

// GetDataW is GetData with an optional one-shot data watch.
func (c *Client) GetDataW(path string, cb WatchCallback) ([]byte, znode.Stat, error) {
	if err := c.check(path); err != nil {
		return nil, znode.Stat{}, err
	}
	watch := cb != nil
	if watch {
		c.watches[clientWatchKey{path, watchData}] = cb
	}
	resp, err := c.call(request{Op: OpGetData, Path: path, Watch: watch})
	if err != nil {
		return nil, znode.Stat{}, err
	}
	if e := codeError(resp.Code); e != nil {
		return nil, znode.Stat{}, e
	}
	return resp.Data, resp.Stat, nil
}

// Exists returns the node's Stat or nil; an optional watch fires on
// creation, change, or deletion.
func (c *Client) Exists(path string) (*znode.Stat, error) { return c.ExistsW(path, nil) }

// ExistsW is Exists with an optional one-shot watch.
func (c *Client) ExistsW(path string, cb WatchCallback) (*znode.Stat, error) {
	if err := c.check(path); err != nil {
		return nil, err
	}
	watch := cb != nil
	if watch {
		c.watches[clientWatchKey{path, watchExists}] = cb
	}
	resp, err := c.call(request{Op: OpExists, Path: path, Watch: watch})
	if err != nil {
		return nil, err
	}
	if e := codeError(resp.Code); e != nil {
		return nil, e
	}
	if !resp.Exists {
		return nil, nil
	}
	stat := resp.Stat
	return &stat, nil
}

// GetChildren lists a node's children in sorted order.
func (c *Client) GetChildren(path string) ([]string, error) { return c.GetChildrenW(path, nil) }

// GetChildrenW is GetChildren with an optional one-shot child watch.
func (c *Client) GetChildrenW(path string, cb WatchCallback) ([]string, error) {
	if err := c.check(path); err != nil {
		return nil, err
	}
	watch := cb != nil
	if watch {
		c.watches[clientWatchKey{path, watchChild}] = cb
	}
	resp, err := c.call(request{Op: OpGetChildren, Path: path, Watch: watch})
	if err != nil {
		return nil, err
	}
	if e := codeError(resp.Code); e != nil {
		return nil, e
	}
	return resp.Children, nil
}

func (c *Client) check(path string) error {
	if c.closed {
		return ErrSessionClosed
	}
	return znode.ValidatePath(path)
}

// Close gracefully ends the session; the ensemble deletes its ephemeral
// nodes as part of the close-session transaction.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	resp, err := c.call(request{Op: OpCloseSession})
	c.closed = true
	c.end.Close()
	if err != nil {
		return err
	}
	return codeError(resp.Code)
}

// Crash simulates the client process dying: heartbeats stop and the
// server-side session-expiry mechanism must clean up.
func (c *Client) Crash() {
	c.crashed = true
	c.closed = true
}
