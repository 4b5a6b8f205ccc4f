package core

// Tests of the write-op table (writeop.go): the precondition stages on their
// own, the property the table exists for — a single op and the one-op
// multi() of it are the same write — and the change it builds, whose object
// is the node as of its own txid.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

func TestWriteOpTable(t *testing.T) {
	// The transaction vocabulary converts to op codes by spelling.
	for op, want := range map[txn.OpType]OpCode{
		txn.OpCreate: OpCreate, txn.OpSetData: OpSetData, txn.OpDelete: OpDelete,
	} {
		if OpCode(op) != want {
			t.Errorf("OpCode(%q) != %q", op, want)
		}
	}
	check := OpCode(txn.OpCheck)
	var (
		missing  = sysNode{}
		live     = sysNode{Exists: true, Version: 3}
		withKids = sysNode{Exists: true, Version: 3, Children: []string{"k"}}
		parent   = sysNode{Exists: true, Children: []string{"n"}}
		unlinked = sysNode{Exists: true, Children: []string{"other"}}
		ephemera = sysNode{Exists: true, Children: []string{"n"}, EphOwner: "s1"}
	)
	const (
		atPath   = "path"
		atParent = "parent"
		atNode   = "node"
	)
	for _, tc := range []struct {
		name         string
		op           OpCode
		path         string
		version      int32
		node, parent sysNode
		stage        string // the stage that rejects; "" when all pass
		want         Code
	}{
		{"create", OpCreate, "/p/n", -1, missing, parent, "", CodeOK},
		{"create ignores the version", OpCreate, "/p/n", 7, missing, parent, "", CodeOK},
		{"create over a live node", OpCreate, "/p/n", -1, live, parent, atNode, CodeNodeExists},
		{"create under a missing parent", OpCreate, "/p/n", -1, missing, missing, atParent, CodeNoNode},
		{"create under an ephemeral", OpCreate, "/p/n", -1, missing, ephemera, atParent, CodeNoChildrenEph},
		{"create under a missing parent beats node_exists", OpCreate, "/p/n", -1, live, missing, atParent, CodeNoNode},
		{"create the root", OpCreate, "/", -1, live, missing, atPath, CodeNodeExists},
		{"create needs no link yet", OpCreate, "/p/n", -1, missing, unlinked, "", CodeOK},

		{"set_data", OpSetData, "/p/n", 3, live, missing, "", CodeOK},
		{"set_data any version", OpSetData, "/p/n", -1, live, missing, "", CodeOK},
		{"set_data missing", OpSetData, "/p/n", -1, missing, missing, atNode, CodeNoNode},
		{"set_data wrong version", OpSetData, "/p/n", 2, live, missing, atNode, CodeBadVersion},
		{"set_data missing beats wrong version", OpSetData, "/p/n", 2, missing, missing, atNode, CodeNoNode},
		{"set_data with children", OpSetData, "/p/n", 3, withKids, missing, "", CodeOK},
		{"set_data never reads the parent", OpSetData, "/p/n", 3, live, ephemera, "", CodeOK},
		{"set_data the root", OpSetData, "/", 3, live, missing, "", CodeOK},

		{"check", check, "/p/n", 3, live, missing, "", CodeOK},
		{"check missing", check, "/p/n", -1, missing, missing, atNode, CodeNoNode},
		{"check wrong version", check, "/p/n", 4, live, missing, atNode, CodeBadVersion},
		{"check with children", check, "/p/n", -1, withKids, missing, "", CodeOK},
		{"check the root", check, "/", -1, live, missing, "", CodeOK},

		{"delete", OpDelete, "/p/n", 3, live, parent, "", CodeOK},
		{"delete any version", OpDelete, "/p/n", -1, live, parent, "", CodeOK},
		{"delete missing", OpDelete, "/p/n", -1, missing, parent, atNode, CodeNoNode},
		{"delete wrong version", OpDelete, "/p/n", 2, live, parent, atNode, CodeBadVersion},
		{"delete with children", OpDelete, "/p/n", 3, withKids, parent, atNode, CodeNotEmpty},
		{"delete under an ephemeral", OpDelete, "/p/n", 3, live, ephemera, "", CodeOK},
		{"delete the root", OpDelete, "/", -1, live, missing, atPath, CodeBadArguments},
		{"delete unlinked", OpDelete, "/p/n", 3, live, unlinked, atNode, CodeSystemError},
		{"delete under a missing parent", OpDelete, "/p/n", 3, live, missing, atNode, CodeSystemError},
		// ZooKeeper's order: no_node, bad_version, not_empty, then the link.
		{"delete missing beats the rest", OpDelete, "/p/n", 2, missing, unlinked, atNode, CodeNoNode},
		{"delete wrong version beats not_empty", OpDelete, "/p/n", 2, withKids, unlinked, atNode, CodeBadVersion},
		{"delete not_empty beats unlinked", OpDelete, "/p/n", 3, withKids, unlinked, atNode, CodeNotEmpty},
	} {
		stage, got := "", CodeOK
		if c := checkPath(tc.op, tc.path); c != CodeOK {
			stage, got = atPath, c
		} else if c := checkParent(tc.op, tc.parent); c != CodeOK {
			stage, got = atParent, c
		} else if c := checkNode(tc.op, tc.path, tc.version, tc.node, tc.parent); c != CodeOK {
			stage, got = atNode, c
		}
		if stage != tc.stage || got != tc.want {
			t.Errorf("%s: %s at stage %q, want %s at %q", tc.name, got, stage, tc.want, tc.stage)
		}
	}
}

// writeOutcome is everything one write leaves behind that a client, the
// system store or the user store can show.
type writeOutcome struct {
	code   Code
	path   string
	stat   znode.Stat
	txid   int64
	system []string // every system-store item, in key order
	user   []string // the user store's view of the target, its parent and the root
}

// runWriteCase builds the fixture with single ops on a fresh deployment and
// submits op, alone or as a one-op multi().
func runWriteCase(t *testing.T, fixture func(s *pipeSession), op txn.Op, asMulti bool) writeOutcome {
	t.Helper()
	r := newPipeRig(t, 77, Config{}, nil)
	var out writeOutcome
	r.k.Go("case", func() {
		s := r.open("c0")
		fixture(s)
		if asMulti {
			resp := s.send(Request{Op: OpMulti, Path: op.Path, Data: txn.EncodeOps([]txn.Op{op})}).Wait()
			if len(resp.MultiResults) != 1 {
				t.Errorf("multi answered %d results", len(resp.MultiResults))
				return
			}
			res := resp.MultiResults[0]
			out = writeOutcome{code: Code(res.Code), path: res.Path, stat: res.Stat, txid: res.Txid}
			if resp.Code != out.code {
				t.Errorf("multi response code %s, its only op's %s", resp.Code, out.code)
			}
		} else {
			resp := s.send(Request{
				Op: OpCode(op.Type), Path: op.Path, Data: op.Data, Version: op.Version, Flags: op.Flags,
			}).Wait()
			out = writeOutcome{code: resp.Code, path: resp.Path, stat: resp.Stat, txid: resp.Txid}
		}
		// The pending pop trails the response: the shard's next invocation
		// runs it.
		r.k.Sleep(sim.Ms(1000))
		r.settle()
		for _, ki := range r.d.System.Scan(s.ctx) {
			// An empty item is the husk of a released lock on a path that
			// never existed. A multi() locks its op's node up front, a create
			// only once its parent passes: they differ in husks alone.
			if len(ki.Item) > 0 {
				out.system = append(out.system, ki.Key+" "+ki.Item.String())
			}
		}
		for _, p := range []string{out.path, znode.Parent(out.path), znode.Root} {
			n, epoch, err := r.d.PrimaryStore().Read(s.ctx, p)
			out.user = append(out.user, fmt.Sprintf("%s: %+v %v %v", p, n, epoch, err))
		}
	})
	r.run()
	return out
}

// TestSingleOpMatchesOneOpMulti is the differential test behind the write-op
// table: whatever the state, an op and the one-op multi() of it answer the
// same and leave the same system store and the same user store.
func TestSingleOpMatchesOneOpMulti(t *testing.T) {
	do := func(op OpCode, path string, flags znode.Flags) func(*pipeSession) {
		return func(s *pipeSession) {
			if resp := s.send(Request{Op: op, Path: path, Data: []byte("v0"), Version: -1, Flags: flags}).Wait(); resp.Code != CodeOK {
				s.rig.t.Errorf("fixture %s %s: %s", op, path, resp.Code)
			}
		}
	}
	seq := func(steps ...func(*pipeSession)) func(*pipeSession) {
		return func(s *pipeSession) {
			for _, step := range steps {
				step(s)
			}
		}
	}
	parent := do(OpCreate, "/p", 0)
	node := seq(parent, do(OpCreate, "/p/n", 0))
	// unlink corrupts the tree: /p stops listing n.
	unlink := func(s *pipeSession) {
		if _, err := s.rig.d.System.Update(s.ctx, "/p",
			[]kv.Update{kv.StrListRemove{Name: attrChildren, Vals: []string{"n"}}}, nil); err != nil {
			s.rig.t.Errorf("unlink: %v", err)
		}
	}
	data := []byte("v1")
	for _, tc := range []struct {
		name    string
		fixture func(*pipeSession)
		op      txn.Op
		want    Code
	}{
		{"create", parent, txn.Create("/p/n", data, 0), CodeOK},
		{"create sequential", node, txn.Create("/p/n-", data, znode.FlagSequential), CodeOK},
		{"create ephemeral", parent, txn.Create("/p/n", data, znode.FlagEphemeral), CodeOK},
		{"create ephemeral sequential", parent, txn.Create("/p/n-", nil, znode.FlagEphemeral|znode.FlagSequential), CodeOK},
		{"create again after a delete", seq(node, do(OpDelete, "/p/n", 0)), txn.Create("/p/n", data, 0), CodeOK},
		{"create existing", node, txn.Create("/p/n", data, 0), CodeNodeExists},
		{"create under a missing parent", parent, txn.Create("/q/n", data, 0), CodeNoNode},
		{"create under an ephemeral", seq(parent, do(OpCreate, "/p/n", znode.FlagEphemeral)), txn.Create("/p/n/x", data, 0), CodeNoChildrenEph},
		{"create the root", parent, txn.Create("/", data, 0), CodeNodeExists},

		{"set_data", node, txn.SetData("/p/n", data, 0), CodeOK},
		{"set_data any version", seq(node, do(OpSetData, "/p/n", 0)), txn.SetData("/p/n", data, -1), CodeOK},
		{"set_data with children", node, txn.SetData("/p", data, -1), CodeOK},
		{"set_data the root", node, txn.SetData("/", data, -1), CodeOK},
		{"set_data an ephemeral", seq(parent, do(OpCreate, "/p/n", znode.FlagEphemeral)), txn.SetData("/p/n", data, 0), CodeOK},
		{"set_data wrong version", node, txn.SetData("/p/n", data, 5), CodeBadVersion},
		{"set_data missing", parent, txn.SetData("/p/n", data, -1), CodeNoNode},

		{"delete", node, txn.Delete("/p/n", 0), CodeOK},
		{"delete an ephemeral", seq(parent, do(OpCreate, "/p/n", znode.FlagEphemeral)), txn.Delete("/p/n", -1), CodeOK},
		{"delete wrong version", node, txn.Delete("/p/n", 5), CodeBadVersion},
		{"delete missing", parent, txn.Delete("/p/n", -1), CodeNoNode},
		{"delete with children", node, txn.Delete("/p", -1), CodeNotEmpty},
		{"delete the root", parent, txn.Delete("/", -1), CodeBadArguments},
		{"delete unlinked", seq(node, unlink), txn.Delete("/p/n", -1), CodeSystemError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := runWriteCase(t, tc.fixture, tc.op, false)
			multi := runWriteCase(t, tc.fixture, tc.op, true)
			if single.code != tc.want {
				t.Errorf("single op answered %s, want %s", single.code, tc.want)
			}
			if single.code != multi.code || single.path != multi.path || single.stat != multi.stat || single.txid != multi.txid {
				t.Errorf("answers differ:\n single %s %q %+v txid %d\n multi  %s %q %+v txid %d",
					single.code, single.path, single.stat, single.txid, multi.code, multi.path, multi.stat, multi.txid)
			}
			diffLines(t, "system store", single.system, multi.system)
			diffLines(t, "user store", single.user, multi.user)
		})
	}
}

// TestCreateGivesUpAtItsParent: a create under a missing parent or under an
// ephemeral one gives up as soon as it holds its parent's lock, alone and as
// the first op of a multi() — whose other op sorts after it and would be
// locked next. It takes exactly one lock, the parent's: the follower makes
// two system-store writes (that lock and its release), and the node it would
// have created leaves no item behind, not even a released lock's husk.
func TestCreateGivesUpAtItsParent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		multi bool
		path  string
		want  Code
	}{
		{"missing parent", false, "/q/n", CodeNoNode},
		{"ephemeral parent", false, "/e/n", CodeNoChildrenEph},
		{"missing parent, multi()", true, "/q/n", CodeNoNode},
		{"ephemeral parent, multi()", true, "/e/n", CodeNoChildrenEph},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 5, Config{}, nil)
			var code Code
			var writes int64
			var husk bool
			r.k.Go("client", func() {
				s := r.open("c")
				s.send(Request{Op: OpCreate, Path: "/e", Flags: znode.FlagEphemeral}).Wait()
				s.do(OpCreate, "/z", "0")
				r.k.Sleep(sim.Ms(1000))
				req := Request{Op: OpCreate, Path: tc.path, Data: []byte("x"), Version: -1}
				if tc.multi {
					ops := []txn.Op{txn.Create(tc.path, []byte("x"), 0), txn.SetData("/z", []byte("1"), -1)}
					req = Request{Op: OpMulti, Path: tc.path, Data: txn.EncodeOps(ops)}
				}
				_, w0 := syskv(r.d)
				code = s.send(req).Wait().Code
				_, w1 := syskv(r.d)
				writes = w1 - w0
				_, husk = r.d.System.Peek(tc.path)
			})
			r.run()
			if code != tc.want {
				t.Errorf("answered %s, want %s", code, tc.want)
			}
			if writes != 2 || husk {
				t.Errorf("%d system-store writes, an item left at %s: %v; want 2 (the parent's lock and its release) and none", writes, tc.path, husk)
			}
		})
	}
}

func diffLines(t *testing.T, what string, single, multi []string) {
	t.Helper()
	if len(single) != len(multi) {
		t.Errorf("%s: %d items after the single op, %d after the multi:\n%q\n%q", what, len(single), len(multi), single, multi)
		return
	}
	for i := range single {
		if single[i] != multi[i] {
			t.Errorf("%s differs:\n single %s\n multi  %s", what, single[i], multi[i])
		}
	}
}

// pushCreate is the follower's half of a create of path by s, through its
// commit under txid: lock the parent, then the node, validate, commit. It
// returns the leader message, with s waiting for the answer.
func (r *pipeRig) pushCreate(s *pipeSession, path string, txid int64) leaderMsg {
	r.t.Helper()
	parentLock, parent, err := r.d.Locks.Acquire(s.ctx, znode.Parent(path))
	if err != nil {
		r.t.Fatalf("lock the parent of %s: %v", path, err)
	}
	nodeLock, node, err := r.d.Locks.Acquire(s.ctx, path)
	if err != nil {
		r.t.Fatalf("lock %s: %v", path, err)
	}
	s.seq++
	msg := leaderMsg{
		Session: s.id, Seq: s.seq, LockTs: nodeLock.Timestamp, ParentLockTs: parentLock.Timestamp,
		change: validatedChange(OpCreate, path, []byte("c"), "", decodeSysNode(node, 0), decodeSysNode(parent, 0)),
	}
	if err := r.d.replayCommit(s.ctx, msg, txid); err != nil {
		r.t.Fatalf("commit %s: %v", path, err)
	}
	s.futs[s.seq] = sim.NewFuture[Response](r.k)
	return msg
}

// TestObjectIsTheSnapshotAtItsTxid: a set_data's user-store object is the
// node as of its own txid. Here a child create commits after the set's
// follower did and before the leader takes the set up, so the set's commit
// check reads a control record that already lists the child at a later
// pzxid. The object — and the Stat the writer is answered with — keeps the
// state the follower read under the node lock: no child, and the pzxid of
// the node's own create, as a single op and as a multi() sub-op.
func TestObjectIsTheSnapshotAtItsTxid(t *testing.T) {
	const set, childCreate = 9, 10
	for _, tc := range []struct {
		name string
		// push is the set's follower half, through its commit at txid set.
		push func(r *pipeRig, s *pipeSession) leaderMsg
		stat func(Response) znode.Stat
	}{
		{
			name: "set_data",
			push: func(r *pipeRig, s *pipeSession) leaderMsg { return r.pushSet(s, "/p", "1", set) },
			stat: func(resp Response) znode.Stat { return resp.Stat },
		},
		{
			name: "multi() set_data",
			push: func(r *pipeRig, s *pipeSession) leaderMsg {
				s.seq++
				lock, item, err := r.d.Locks.Acquire(s.ctx, "/p")
				if err != nil {
					r.t.Fatalf("lock /p: %v", err)
				}
				msg := leaderMsg{
					Session: s.id, Seq: s.seq, change: change{Op: OpMulti, Path: "/p"},
					Ops:       []change{validatedChange(OpSetData, "/p", []byte("1"), "", decodeSysNode(item, 0), sysNode{})},
					ItemPaths: []string{"/p"}, ItemLockTs: []int64{lock.Timestamp},
				}
				if err := r.d.replayCommit(s.ctx, msg, set); err != nil {
					r.t.Fatalf("commit: %v", err)
				}
				s.futs[s.seq] = sim.NewFuture[Response](r.k)
				return msg
			},
			stat: func(resp Response) znode.Stat {
				if len(resp.MultiResults) != 1 {
					return znode.Stat{}
				}
				return resp.MultiResults[0].Stat
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 21, Config{}, &pipeFaults{})
			var born int64
			var resp Response
			var obj *znode.Node
			r.k.Go(leaderProc, func() {
				s := r.open("w")
				born = s.do(OpCreate, "/p", "0").Txid
				r.k.Sleep(sim.Ms(200))
				r.settle()
				msg := tc.push(r, s)
				r.pushCreate(s, "/p/c", childCreate)
				r.deliver(s.ctx, set, msg)
				resp = s.futs[msg.Seq].Wait()
				r.k.Sleep(sim.Ms(200))
				var err error
				if obj, _, err = r.d.PrimaryStore().Read(s.ctx, "/p"); err != nil {
					t.Errorf("read /p: %v", err)
				}
			})
			r.run()
			if resp.Code != CodeOK || obj == nil {
				t.Fatalf("answered %s", resp.Code)
			}
			want := znode.Stat{Czxid: born, Mzxid: set, Pzxid: born, Version: 1, DataLength: 1}
			if obj.Stat != want || len(obj.Children) != 0 {
				t.Errorf("object %+v %v, want %+v and no child: the commit check's read of a later create leaked in", obj.Stat, obj.Children, want)
			}
			if got := tc.stat(resp); got != want {
				t.Errorf("answered with %+v, want %+v", got, want)
			}
		})
	}
}

// TestChunkObjectsAreEachTheirTxids: under BatchWrites a chunk of set /p, a
// child create under /p and set /p folds three txids into one flush. Each
// set is answered with the node as of its own txid — the first without the
// child, the second with it at the create's pzxid — and the object written
// is the second's.
func TestChunkObjectsAreEachTheirTxids(t *testing.T) {
	r := newPipeRig(t, 21, Config{BatchWrites: true}, &pipeFaults{})
	var born int64
	var resps [3]Response
	var obj *znode.Node
	r.k.Go(leaderProc, func() {
		s := r.open("w")
		born = s.do(OpCreate, "/p", "0").Txid
		r.k.Sleep(sim.Ms(200))
		r.settle()
		msgs := []leaderMsg{r.pushSet(s, "/p", "1", 9), r.pushCreate(s, "/p/c", 10), r.pushSet(s, "/p", "2", 11)}
		r.deliver(s.ctx, 9, msgs...)
		for i, m := range msgs {
			resps[i] = s.futs[m.Seq].Wait()
		}
		r.k.Sleep(sim.Ms(200))
		var err error
		if obj, _, err = r.d.PrimaryStore().Read(s.ctx, "/p"); err != nil {
			t.Errorf("read /p: %v", err)
		}
	})
	r.run()
	first := znode.Stat{Czxid: born, Mzxid: 9, Pzxid: born, Version: 1, DataLength: 1}
	second := znode.Stat{Czxid: born, Mzxid: 11, Pzxid: 10, Version: 2, Cversion: 1, DataLength: 1, NumChildren: 1}
	if resps[0].Stat != first || resps[2].Stat != second {
		t.Errorf("the sets were answered with %+v and %+v, want %+v and %+v", resps[0].Stat, resps[2].Stat, first, second)
	}
	if obj == nil || obj.Stat != second || !slices.Equal(obj.Children, []string{"c"}) {
		t.Errorf("object %+v, want %+v listing c", obj, second)
	}
}

// TestMultiSetTakesItsTxidsStamps: a set_data on a node an earlier op of the
// same multi() created, or whose child list one changed, builds its object
// from the speculative state, which cannot know the txid: it takes the
// create's czxid and pzxid, and the txid as its pzxid once its child list
// changed.
func TestMultiSetTakesItsTxidsStamps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		exists   bool // /q is created ahead of the multi()
		ops      []txn.Op
		children []string
		version  int32
	}{
		{"create, set", false, []txn.Op{txn.Create("/q", []byte("0"), 0), txn.SetData("/q", []byte("1"), 0)}, nil, 1},
		{"create, create a child, set, set", false, []txn.Op{
			txn.Create("/q", []byte("0"), 0), txn.Create("/q/c", nil, 0),
			txn.SetData("/q", []byte("1"), 0), txn.SetData("/q", []byte("1"), 1),
		}, []string{"c"}, 2},
		{"create a child, set", true, []txn.Op{txn.Create("/q/c", nil, 0), txn.SetData("/q", []byte("1"), 0)}, []string{"c"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 21, Config{}, nil)
			var resp Response
			var obj *znode.Node
			var born int64
			r.k.Go("client", func() {
				s := r.open("w")
				if tc.exists {
					born = s.do(OpCreate, "/q", "0").Txid
				}
				resp = s.send(Request{Op: OpMulti, Path: "/q", Data: txn.EncodeOps(tc.ops)}).Wait()
				r.k.Sleep(sim.Ms(200))
				var err error
				if obj, _, err = r.d.PrimaryStore().Read(s.ctx, "/q"); err != nil {
					t.Errorf("read /q: %v", err)
				}
			})
			r.run()
			if resp.Code != CodeOK || len(resp.MultiResults) != len(tc.ops) || obj == nil {
				t.Fatalf("answered %s with %d results", resp.Code, len(resp.MultiResults))
			}
			last := resp.MultiResults[len(tc.ops)-1]
			txid := last.Txid
			if !tc.exists {
				born = txid
			}
			want := znode.Stat{
				Czxid: born, Mzxid: txid, Pzxid: txid, Version: tc.version, Cversion: int32(len(tc.children)),
				DataLength: 1, NumChildren: int32(len(tc.children)),
			}
			if obj.Stat != want || !slices.Equal(obj.Children, tc.children) {
				t.Errorf("object %+v %v, want %+v %v", obj.Stat, obj.Children, want, tc.children)
			}
			if last.Stat != want {
				t.Errorf("the last set answered %+v, want %+v", last.Stat, want)
			}
		})
	}
}

// TestCreateStoresNoViewOfItsMessage: decoding borrows, so every string of
// a create's request views its message body. The strings the create
// writes to the system store, which outlives the body, are clones: its
// child name on the parent's list, its ephemeral owner and the entry on
// its session's ephemeral list.
func TestCreateStoresNoViewOfItsMessage(t *testing.T) {
	r := newPipeRig(t, 1, Config{}, nil)
	var body []byte
	r.k.Go("client", func() {
		s := r.open("s")
		s.seq++
		req := Request{Session: s.id, Seq: s.seq, Op: OpCreate, Path: "/eph", Data: []byte("x"), Version: -1, Flags: znode.FlagEphemeral}
		e := wire.NewEncoder()
		body = bytes.Clone(req.Encode(e))
		e.Release()
		dec, err := DecodeRequest(body)
		if err != nil || !aliases(dec.Path, body) {
			t.Errorf("decoded %+v (%v): want its path a view into the body", dec, err)
			return
		}
		fut := sim.NewFuture[Response](r.k)
		s.futs[req.Seq] = fut
		r.d.Obs.Tracer.StartRequest(req.trace(), string(req.Op), req.Path)
		if err := r.d.processRequest(s.ctx, dec); err != nil {
			t.Errorf("create: %v", err)
		}
		if resp := fut.Wait(); resp.Code != CodeOK {
			t.Errorf("create answered %s", resp.Code)
		}
	})
	r.run()
	root, _ := r.d.System.Peek(znode.Root)
	node, _ := r.d.System.Peek("/eph")
	sess, _ := r.d.System.Peek(sessionKey("s"))
	for _, c := range []struct {
		what string
		got  []string
		want string
	}{
		{"child name", root.Get(attrChildren).SL(), "eph"},
		{"owner", []string{node.Get(attrEph).Str()}, "s"},
		{"session's ephemeral", sess.Get(attrSessionEph).SL(), "/eph"},
	} {
		i := slices.Index(c.got, c.want)
		if i < 0 {
			t.Errorf("%s: stored %q, want %q in it", c.what, c.got, c.want)
		} else if aliases(c.got[i], body) {
			t.Errorf("%s %q is a view into the request's body", c.what, c.want)
		}
	}
}

// aliases reports whether s's bytes lie inside b.
func aliases(s string, b []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(s) > 0 && p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}
