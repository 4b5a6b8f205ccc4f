package zk

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/network"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// Config sizes the ensemble.
type Config struct {
	Servers        int           // default 3 (the smallest deployment)
	SessionTimeout time.Duration // default 6 s
	InstanceType   string        // for cost accounting (default t3.medium)
}

func (c *Config) defaults() {
	if c.Servers <= 0 {
		c.Servers = 3
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 6 * time.Second
	}
	if c.InstanceType == "" {
		c.InstanceType = "t3.medium"
	}
}

// Ensemble is a running ZooKeeper deployment.
type Ensemble struct {
	env *cloud.Env
	cfg Config

	servers []*Server
	epoch   int64

	writes int64 // committed write transactions (utilization accounting)
	reads  int64
}

// Server is one ensemble member holding a full replica.
type Server struct {
	ens   *Ensemble
	id    int
	alive bool

	replica *tree
	mailbox *sim.Queue[peerMsg]
	peers   map[int]*network.End[peerMsg]

	isLeader bool
	spec     *tree // leader only: speculative future state
	nextCtr  int64
	pending  map[int64]*proposal
	commitAt int64 // next zxid (counter part) to commit, in order

	lastApplied int64
	sessions    map[string]*serverSession
	watches     map[string]map[core.EventType]map[string]bool // path -> event -> sessions
	nextSessNum int64
}

type proposal struct {
	txn  *ztxn
	acks map[int]bool
}

// NewEnsemble starts the servers and elects server 0 leader.
func NewEnsemble(env *cloud.Env, cfg Config) *Ensemble {
	cfg.defaults()
	e := &Ensemble{env: env, cfg: cfg, epoch: 1}
	for i := 0; i < cfg.Servers; i++ {
		s := &Server{
			ens: e, id: i, alive: true,
			replica:  newTree(),
			mailbox:  sim.NewQueue[peerMsg](env.K),
			peers:    map[int]*network.End[peerMsg]{},
			pending:  map[int64]*proposal{},
			sessions: map[string]*serverSession{},
			watches:  map[string]map[core.EventType]map[string]bool{},
		}
		e.servers = append(e.servers, s)
	}
	// Full mesh of ordered server-to-server links.
	for i := 0; i < cfg.Servers; i++ {
		for j := i + 1; j < cfg.Servers; j++ {
			conn := network.NewLANConn[peerMsg](env)
			e.servers[i].attachPeer(j, conn.A())
			e.servers[j].attachPeer(i, conn.B())
		}
	}
	e.servers[0].becomeLeader()
	for _, s := range e.servers {
		srv := s
		env.K.Go(fmt.Sprintf("zk-server-%d", srv.id), srv.mainLoop)
		env.K.Go(fmt.Sprintf("zk-expirer-%d", srv.id), srv.sessionExpiryLoop)
	}
	return e
}

// Env returns the cloud environment.
func (e *Ensemble) Env() *cloud.Env { return e.env }

// Leader returns the current leader server.
func (e *Ensemble) Leader() *Server {
	for _, s := range e.servers {
		if s.alive && s.isLeader {
			return s
		}
	}
	return nil
}

// Server returns ensemble member i.
func (e *Ensemble) Server(i int) *Server { return e.servers[i] }

// Servers returns the ensemble size.
func (e *Ensemble) Servers() int { return len(e.servers) }

// quorum is the majority of the full ensemble.
func (e *Ensemble) quorum() int { return len(e.servers)/2 + 1 }

// WriteCount returns committed write transactions (utilization profiling,
// Section 5.1).
func (e *Ensemble) WriteCount() int64 { return e.writes }

// ReadCount returns served read requests.
func (e *Ensemble) ReadCount() int64 { return e.reads }

// KillServer stops a member; its sessions are dropped. Killing the leader
// triggers an election among the remaining members.
func (e *Ensemble) KillServer(i int) {
	s := e.servers[i]
	if !s.alive {
		return
	}
	wasLeader := s.isLeader
	s.alive = false
	s.isLeader = false
	s.mailbox.Close()
	for _, sess := range s.sessions {
		sess.close()
	}
	s.sessions = map[string]*serverSession{}
	if wasLeader {
		e.elect()
	}
}

// elect promotes the live server with the freshest state, bumping the
// epoch so new zxids dominate all previous ones (ZAB's recovery step,
// reduced to the synchronous-simulation setting).
func (e *Ensemble) elect() {
	var best *Server
	for _, s := range e.servers {
		if !s.alive {
			continue
		}
		if best == nil || s.lastApplied > best.lastApplied {
			best = s
		}
	}
	if best == nil {
		return
	}
	e.epoch++
	best.becomeLeader()
}

func (s *Server) becomeLeader() {
	s.isLeader = true
	s.spec = s.replica.clone()
	s.nextCtr = 1
	s.commitAt = 1
	s.pending = map[int64]*proposal{}
}

func (s *Server) attachPeer(id int, end *network.End[peerMsg]) {
	s.peers[id] = end
	s.ens.env.K.Go(fmt.Sprintf("zk-peer-recv-%d<-%d", s.id, id), func() {
		for {
			pkt, ok := end.Recv()
			if !ok {
				return
			}
			if !s.alive {
				continue
			}
			s.mailbox.Push(pkt.Payload)
		}
	})
}

func (s *Server) sendPeer(to int, m peerMsg) {
	if end, ok := s.peers[to]; ok {
		end.Send(m, m.wireSize())
	}
}

// zxid packs epoch and counter, as in ZAB.
func (e *Ensemble) zxid(ctr int64) int64 { return e.epoch<<32 | ctr }

// mainLoop drives the ZAB state machine for both roles.
func (s *Server) mainLoop() {
	for {
		m, ok := s.mailbox.Pop()
		if !ok {
			return
		}
		if !s.alive {
			return
		}
		switch m.Type {
		case msgForward:
			if s.isLeader {
				s.leaderPropose(m.Txn.origin)
			}
		case msgPropose:
			// Follower: log durably, then acknowledge.
			s.fsync(m.Txn.size())
			s.pending[m.Zxid] = &proposal{txn: m.Txn}
			s.sendPeer(m.From, peerMsg{Type: msgAck, From: s.id, Zxid: m.Zxid})
		case msgAck:
			if s.isLeader {
				s.onAck(m.From, m.Zxid)
			}
		case msgCommit:
			if p, ok := s.pending[m.Zxid]; ok {
				delete(s.pending, m.Zxid)
				s.applyCommitted(p.txn)
			}
		case msgReject:
			pw := m.Txn.origin
			s.replyWrite(pw, pw.code, pw.path)
		}
	}
}

// submitWrite enters a client write into the broadcast, either locally (on
// the leader) or by forwarding over the leader link.
func (s *Server) submitWrite(pw *pendingWrite) {
	leader := s.ens.Leader()
	if leader == nil {
		s.replyWrite(pw, codeClosed, pw.req.Path)
		return
	}
	x := &ztxn{origin: pw}
	if leader == s {
		s.mailbox.Push(peerMsg{Type: msgForward, From: s.id, Txn: x})
		return
	}
	s.sendPeer(leader.id, peerMsg{Type: msgForward, From: s.id, Txn: x})
}

// leaderPropose validates against the speculative tree, sequences the
// transaction, logs it, and broadcasts the proposal.
func (s *Server) leaderPropose(pw *pendingWrite) {
	if pw.req.Op == OpMulti {
		s.leaderProposeMulti(pw)
		return
	}
	code, finalPath, owner := s.spec.validate(pw.session.id, pw.req)
	if pw.req.Op == OpCloseSession {
		code, finalPath = core.CodeOK, ""
	}
	if code != core.CodeOK {
		// Rejections are not replicated; answer through the origin server.
		pw.code = code
		pw.path = pw.req.Path
		s.deliverReply(pw)
		return
	}
	zxid := s.ens.zxid(s.nextCtr)
	s.nextCtr++
	x := &ztxn{
		Zxid: zxid, Path: finalPath, Data: pw.req.Data,
		Flags: pw.req.Flags, Owner: owner, origin: pw,
		SessionID: pw.session.id,
	}
	switch pw.req.Op {
	case OpCreate:
		x.Type = txnCreate
	case OpSetData:
		x.Type = txnSetData
	case OpDelete:
		x.Type = txnDelete
	case OpCloseSession:
		x.Type = txnCloseSession
	}
	s.spec.apply(x)
	s.fsync(x.size())
	s.pending[zxid] = &proposal{txn: x, acks: map[int]bool{s.id: true}}
	for _, peer := range s.ens.servers {
		if peer.id != s.id && peer.alive {
			s.sendPeer(peer.id, peerMsg{Type: msgPropose, From: s.id, Txn: x, Zxid: zxid})
		}
	}
	s.maybeCommit()
}

// leaderProposeMulti validates a multi() sequentially against a clone of
// the speculative tree (sub-ops see their predecessors' effects) and, if
// every sub-op passes, replicates the whole batch as ONE transaction with
// one zxid — the baseline semantics FaaSKeeper's multi() is compared
// against. Any failure rejects the multi without replicating anything, and
// answers per op as FaaSKeeper does: the failing op carries its code, every
// other op txn.CodeAborted.
func (s *Server) leaderProposeMulti(pw *pendingWrite) {
	spec := s.spec.clone()
	zxid := s.ens.zxid(s.nextCtr)
	subs := make([]*ztxn, 0, len(pw.req.MultiOps))
	results := make([]txn.Result, len(pw.req.MultiOps))
	for i, op := range pw.req.MultiOps {
		sub := request{Op: subOps[op.Type], Path: op.Path, Data: op.Data, Version: op.Version, Flags: op.Flags}
		code, finalPath, owner := spec.validate(pw.session.id, sub)
		if code != core.CodeOK {
			for j := range results {
				results[j] = txn.Result{Type: pw.req.MultiOps[j].Type, Path: pw.req.MultiOps[j].Path, Code: txn.CodeAborted}
			}
			results[i].Code = string(code)
			pw.code, pw.path, pw.results = code, op.Path, results
			s.deliverReply(pw)
			return
		}
		results[i] = txn.Result{Type: op.Type, Path: finalPath, Code: txn.CodeOK}
		if sub.Op == OpCheck {
			n, _ := spec.get(op.Path)
			results[i].Stat = n.Stat
			continue // guards replicate nothing
		}
		x := &ztxn{
			Zxid: zxid, Path: finalPath, Data: op.Data,
			Flags: op.Flags, Owner: owner, SessionID: pw.session.id,
		}
		switch sub.Op {
		case OpCreate:
			x.Type = txnCreate
		case OpSetData:
			x.Type = txnSetData
		case OpDelete:
			x.Type = txnDelete
		}
		results[i].Stat, _ = spec.apply(x)
		results[i].Txid = zxid
		subs = append(subs, x)
	}
	s.nextCtr++
	pw.results = results
	x := &ztxn{Zxid: zxid, Type: txnMulti, Sub: subs, SessionID: pw.session.id, origin: pw}
	s.spec.apply(x)
	s.fsync(x.size())
	s.pending[zxid] = &proposal{txn: x, acks: map[int]bool{s.id: true}}
	for _, peer := range s.ens.servers {
		if peer.id != s.id && peer.alive {
			s.sendPeer(peer.id, peerMsg{Type: msgPropose, From: s.id, Txn: x, Zxid: zxid})
		}
	}
	s.maybeCommit()
}

func (s *Server) onAck(from int, zxid int64) {
	p, ok := s.pending[zxid]
	if !ok {
		return
	}
	if p.acks == nil {
		p.acks = map[int]bool{}
	}
	p.acks[from] = true
	s.maybeCommit()
}

// maybeCommit commits proposals strictly in zxid order once each reaches a
// quorum of acknowledgments.
func (s *Server) maybeCommit() {
	for {
		zxid := s.ens.zxid(s.commitAt)
		p, ok := s.pending[zxid]
		if !ok || len(p.acks) < s.ens.quorum() {
			return
		}
		delete(s.pending, zxid)
		s.commitAt++
		s.ens.writes++
		for _, peer := range s.ens.servers {
			if peer.id != s.id && peer.alive {
				s.sendPeer(peer.id, peerMsg{Type: msgCommit, From: s.id, Zxid: zxid})
			}
		}
		s.applyCommitted(p.txn)
	}
}

// applyCommitted applies a committed txn to the local replica, fires local
// watches, and answers the client if its session lives here.
func (s *Server) applyCommitted(x *ztxn) {
	stat, events := s.replica.apply(x)
	if x.Zxid > s.lastApplied {
		s.lastApplied = x.Zxid
	}
	s.fireWatches(events, x.Zxid)
	if x.origin != nil && x.origin.serverID == s.id {
		pw := x.origin
		pw.stat = stat
		s.replyWrite(pw, core.CodeOK, x.Path)
	}
	if x.Type == txnCloseSession {
		if sess, ok := s.sessions[x.SessionID]; ok {
			sess.close()
			delete(s.sessions, x.SessionID)
		}
	}
}

// fsync models the transaction-log disk write that gates every ZAB ack.
func (s *Server) fsync(size int) {
	env := s.ens.env
	d := env.Profile.ZKDiskSync.Sample(env.K.Rand())
	d += sim.Time(float64(size) / 1024 * float64(sim.Ms(0.05)))
	env.K.Sleep(d)
}

// fireWatches delivers one event per (session, path) over the session
// connections; FIFO links order them against read replies (Z4).
func (s *Server) fireWatches(events []firedEvent, zxid int64) {
	for _, ev := range events {
		targets := map[string]bool{}
		if byEvent := s.watches[ev.Path]; byEvent != nil {
			consume := func(et core.EventType) {
				for sess := range byEvent[et] {
					targets[sess] = true
				}
				delete(byEvent, et)
			}
			// A node event consumes the matching registrations, mirroring
			// ZooKeeper's one-shot semantics.
			switch ev.Type {
			case core.EventCreated:
				consume(core.EventCreated)
			case core.EventDataChanged, core.EventDeleted:
				consume(core.EventDataChanged)
				consume(core.EventCreated) // exists watches fire on change/delete
			case core.EventChildrenChanged:
				consume(core.EventChildrenChanged)
			}
		}
		// In session order: each send draws its latency from the kernel's
		// random stream, so a map's order would make the run irreproducible.
		ids := make([]string, 0, len(targets))
		for id := range targets {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, sessID := range ids {
			if sess, ok := s.sessions[sessID]; ok {
				sess.sendEvent(core.Notification{Event: ev.Type, Path: ev.Path, Txid: zxid})
			}
		}
	}
}

// registerWatch adds a one-shot registration. Watch kinds are encoded by
// the event type that consumes them: core.EventDataChanged for data watches,
// core.EventCreated for exists watches, core.EventChildrenChanged for child watches.
func (s *Server) registerWatch(path string, et core.EventType, session string) {
	byEvent := s.watches[path]
	if byEvent == nil {
		byEvent = map[core.EventType]map[string]bool{}
		s.watches[path] = byEvent
	}
	if byEvent[et] == nil {
		byEvent[et] = map[string]bool{}
	}
	byEvent[et][session] = true
}

// sessionExpiryLoop prunes sessions that stopped sending heartbeats,
// submitting close-session transactions that delete their ephemerals.
func (s *Server) sessionExpiryLoop() {
	tick := s.ens.cfg.SessionTimeout / 3
	for {
		s.ens.env.K.Sleep(tick)
		if !s.alive {
			return
		}
		// Each submission draws from the kernel's random stream, so the
		// expired sessions close in id order, not map order.
		now := s.ens.env.K.Now()
		var expired []*serverSession
		for _, sess := range s.sessions {
			if now-sess.lastHeard > s.ens.cfg.SessionTimeout && !sess.closing {
				expired = append(expired, sess)
			}
		}
		slices.SortFunc(expired, func(a, b *serverSession) int { return strings.Compare(a.id, b.id) })
		for _, sess := range expired {
			sess.closing = true
			s.submitWrite(&pendingWrite{
				serverID: s.id, session: sess,
				req: request{Op: OpCloseSession},
			})
		}
	}
}
