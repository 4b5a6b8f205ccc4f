package zk

import (
	"faaskeeper/internal/cloud/network"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

// serverSession is the server-side half of one client session.
type serverSession struct {
	id        string
	srv       *Server
	end       *network.End[sessionMsg] // server side of the session connection
	lastHeard sim.Time
	closing   bool
	closed    bool

	// writeBarrier chains the session's in-flight writes so reads issued
	// after a write wait for its local commit (FIFO order).
	writeBarrier *sim.Future[struct{}]
}

// accept wires a new session onto the server and starts its handler.
func (s *Server) accept(id string, end *network.End[sessionMsg]) *serverSession {
	sess := &serverSession{id: id, srv: s, end: end, lastHeard: s.ens.env.K.Now()}
	s.sessions[id] = sess
	s.ens.env.K.Go("zk-session-"+id, sess.handlerLoop)
	return sess
}

func (sess *serverSession) close() {
	if !sess.closed {
		sess.closed = true
		sess.end.Close()
	}
}

func (sess *serverSession) sendEvent(ev core.Notification) {
	if !sess.closed {
		sess.end.Send(sessionMsg{event: ev, isEvent: true}, eventWireSize(ev))
	}
}

func (sess *serverSession) send(r response) {
	if !sess.closed {
		sess.end.Send(sessionMsg{resp: r}, r.wireSize())
	}
}

// handlerLoop processes the session's requests in arrival (FIFO) order.
func (sess *serverSession) handlerLoop() {
	s := sess.srv
	env := s.ens.env
	for {
		pkt, ok := sess.end.Recv()
		if !ok {
			return
		}
		if sess.closed || !s.alive {
			return
		}
		req := pkt.Payload.req
		sess.lastHeard = env.K.Now()
		switch req.Op {
		case OpPing:
			sess.send(response{Seq: req.Seq, Code: core.CodeOK})
		case OpGetData, OpExists, OpGetChildren:
			sess.handleRead(req)
		case OpCreate, OpSetData, OpDelete, OpMulti, OpCloseSession:
			barrier := sim.NewFuture[struct{}](env.K)
			sess.writeBarrier = barrier
			pw := &pendingWrite{serverID: s.id, session: sess, req: req, barrier: barrier}
			s.submitWrite(pw)
			if req.Op == OpCloseSession {
				sess.closing = true
			}
		}
	}
}

// handleRead serves the request from the local replica; a read that
// follows an uncommitted write of the same session waits for it first.
func (sess *serverSession) handleRead(req request) {
	s := sess.srv
	env := s.ens.env
	if sess.writeBarrier != nil && !sess.writeBarrier.Done() {
		sess.writeBarrier.Wait()
	}
	// Register the watch before reading so no update can slip between.
	if req.Watch {
		switch req.Op {
		case OpGetData:
			s.registerWatch(req.Path, core.EventDataChanged, sess.id)
		case OpExists:
			s.registerWatch(req.Path, core.EventCreated, sess.id)
		case OpGetChildren:
			s.registerWatch(req.Path, core.EventChildrenChanged, sess.id)
		}
	}
	n, ok := s.replica.get(req.Path)
	// Request processing on a warm server: sub-millisecond, size-linear.
	size := 0
	if ok {
		size = len(n.Data)
	}
	env.K.Sleep(sim.Ms(0.08) + sim.Time(float64(size)/1024*float64(sim.Ms(0.008))))
	s.ens.reads++
	resp := response{Seq: req.Seq, Path: req.Path}
	if !ok {
		resp.Code = core.CodeNoNode
		if req.Op == OpExists {
			resp.Code = core.CodeOK
			resp.Exists = false
		}
		sess.send(resp)
		return
	}
	resp.Code = core.CodeOK
	resp.Exists = true
	resp.Stat = n.Stat
	switch req.Op {
	case OpGetData:
		resp.Data = append([]byte(nil), n.Data...)
	case OpGetChildren:
		resp.Children = n.SortedChildren()
	}
	sess.send(resp)
}

// replyWrite completes a client write after local commit (or validation
// failure on the leader).
func (s *Server) replyWrite(pw *pendingWrite, code core.Code, path string) {
	sess := pw.session
	if pw.barrier != nil {
		pw.barrier.TryComplete(struct{}{})
	}
	sess.send(response{Seq: pw.req.Seq, Code: code, Path: path, Stat: pw.stat, Results: pw.results})
}

// deliverReply routes a leader-side rejection back through the origin
// server (which may be the leader itself).
func (s *Server) deliverReply(pw *pendingWrite) {
	if pw.serverID == s.id {
		s.replyWrite(pw, pw.code, pw.path)
		return
	}
	s.sendPeer(pw.serverID, peerMsg{Type: msgReject, From: s.id, Txn: &ztxn{origin: pw}})
}
