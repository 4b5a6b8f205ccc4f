package core

// Tests of the write-op table (writeop.go): the precondition stages on their
// own, and the property the table exists for — a single op and the one-op
// multi() of it are the same write.

import (
	"fmt"
	"testing"

	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
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
		{"delete the root", OpDelete, "/", -1, live, missing, atPath, CodeSystemError},
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
		// The pending pop trails the response.
		r.k.Sleep(sim.Ms(1000))
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
		if _, err := s.rig.d.System.Update(s.ctx, nodeKey("/p"),
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
		{"delete the root", parent, txn.Delete("/", -1), CodeSystemError},
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
