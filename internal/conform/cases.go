package conform

import (
	"fmt"
	"time"

	"faaskeeper"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
	"faaskeeper/recipes"
)

// seq names a sequential create's n-th node.
func seq(prefix string, n int64) string { return znode.SequentialName(prefix, n) }

var common = []testCase{
	{"RoundTrip", func(e *env) {
		c := e.client()
		p := c.P("cfg")
		path, err := c.Create(p, []byte("v1"), 0)
		e.must("create", err)
		e.equal("created path", path, p)
		data, st, err := c.GetData(p)
		e.must("get", err)
		e.equal("data", string(data), "v1")
		if st.Version != 0 || st.Czxid == 0 || st.Mzxid != st.Czxid || st.DataLength != 2 {
			e.Errorf("created stat: %+v", st)
		}
		st2, err := c.SetData(p, []byte("v2"), 0)
		e.must("set", err)
		if st2.Version != 1 || st2.Mzxid <= st.Mzxid || st2.Czxid != st.Czxid {
			e.Errorf("set stat: %+v after %+v", st2, st)
		}
		data, _, err = c.GetData(p)
		e.equal("data after set", string(data), "v2")
		e.is("delete", c.Delete(p, 1), nil)
		_, _, err = c.GetData(p)
		e.is("get deleted", err, faaskeeper.ErrNoNode)
		e.cleanup(c)
	}},
	{"Errors", func(e *env) {
		c := e.client()
		_, err := c.Create(c.P("a"), nil, 0)
		e.is("create", err, nil)
		_, err = c.Create(c.P("a"), nil, 0)
		e.is("create twice", err, faaskeeper.ErrNodeExists)
		_, err = c.Create(c.P("missing/child"), nil, 0)
		e.is("create without parent", err, faaskeeper.ErrNoNode)
		_, err = c.SetData(c.P("missing"), nil, -1)
		e.is("set missing", err, faaskeeper.ErrNoNode)
		_, _, err = c.GetData(c.P("missing"))
		e.is("get missing", err, faaskeeper.ErrNoNode)
		_, err = c.GetChildren(c.P("missing"))
		e.is("children of missing", err, faaskeeper.ErrNoNode)
		e.is("delete missing", c.Delete(c.P("missing"), -1), faaskeeper.ErrNoNode)
		_, err = c.SetData(c.P("a"), nil, 7)
		e.is("set at a wrong version", err, faaskeeper.ErrBadVersion)
		_, err = c.Create(c.P("a/b"), nil, 0)
		e.is("create child", err, nil)
		e.is("delete a parent", c.Delete(c.P("a"), -1), faaskeeper.ErrNotEmpty)
		e.is("delete at a wrong version", c.Delete(c.P("a/b"), 3), faaskeeper.ErrBadVersion)
		_, err = c.Create(c.P("eph"), nil, faaskeeper.FlagEphemeral)
		e.is("create ephemeral", err, nil)
		_, err = c.Create(c.P("eph/x"), nil, 0)
		e.is("child of an ephemeral", err, faaskeeper.ErrNoChildrenEph)
		_, err = c.Create("relative", nil, 0)
		e.is("relative path", err, znode.ErrBadPath)
		e.cleanup(c)
	}},
	{"Root", func(e *env) {
		s, err := e.connect("root") // before any namespace: / has no children
		e.must("connect", err)
		_, err = s.Create("/", nil, 0)
		e.is("create /", err, faaskeeper.ErrNodeExists)
		e.is("delete an empty /", s.Delete("/", -1), faaskeeper.ErrBadArguments)
		e.must("close", s.Close())
		c := e.client()
		e.is("delete /", c.Delete("/", -1), faaskeeper.ErrBadArguments)
		if st, err := c.Exists("/"); err != nil || st == nil {
			e.Errorf("exists / after its deletes were refused: %v %v", st, err)
		}
		kids, err := c.GetChildren("/")
		e.must("children of /", err)
		e.equal("children of /", kids, []string{e.root[1:]})
		e.cleanup(c)
	}},
	{"Sequential", func(e *env) {
		c, other := e.client(), e.client()
		prefix := c.P("lock-")
		var names []string
		for _, s := range []*Client{c, c, other} {
			name, err := s.Create(prefix, nil, faaskeeper.FlagSequential|faaskeeper.FlagEphemeral)
			e.must("sequential create", err)
			names = append(names, name)
		}
		e.equal("names", names, []string{seq(prefix, 0), seq(prefix, 1), seq(prefix, 2)})
		e.must("delete", c.Delete(names[1], -1))
		name, err := c.Create(prefix, nil, faaskeeper.FlagSequential)
		e.must("sequential create after a delete", err)
		if name <= names[2] {
			e.Errorf("name %q reuses a number up to %q", name, names[2])
		}
		e.must("close", other.Close())
		e.s.Sleep(settle)
		kids, _ := c.GetChildren(c.P(""))
		e.equal("children after the other session closed", kids, []string{names[0][len(c.NS)+1:], name[len(c.NS)+1:]})
		e.must("delete the closed session's namespace", c.deleteR(other.NS))
		e.cleanup(c)
	}},
	{"Stat", func(e *env) {
		c := e.client()
		p := c.P("p")
		e.must("create", c.CreateR("p", []byte("abc")))
		for _, kid := range []string{"a", "b"} {
			_, err := c.Create(p+"/"+kid, nil, 0)
			e.must("create child", err)
		}
		e.must("delete child", c.Delete(p+"/b", -1))
		_, err := c.SetData(p, []byte("abcd"), -1)
		e.must("set", err)
		st, err := c.Exists(p)
		e.must("exists", err)
		if st.Version != 1 || st.Cversion != 3 || st.NumChildren != 1 || st.DataLength != 4 || st.Ephemeral || st.Owner != "" {
			e.Errorf("stat: %+v", *st)
		}
		_, gst, _ := c.GetData(p)
		e.equal("GetData's stat", gst, *st)
		_, err = c.Create(c.P("eph"), nil, faaskeeper.FlagEphemeral)
		e.must("create ephemeral", err)
		if st, _ := c.Exists(c.P("eph")); st == nil || !st.Ephemeral || st.Owner != c.ID() {
			e.Errorf("ephemeral stat: %+v, want owner %s", st, c.ID())
		}
		st, err = c.Exists(c.P("missing"))
		if st != nil || err != nil {
			e.Errorf("exists missing: %v %v", st, err)
		}
		e.cleanup(c)
	}},
	{"Children", func(e *env) {
		c := e.client()
		for _, kid := range []string{"c", "a", "b"} {
			_, err := c.Create(c.P(kid), nil, 0)
			e.must("create", err)
		}
		kids, err := c.GetChildren(c.P(""))
		e.must("children", err)
		e.equal("children", kids, []string{"a", "b", "c"})
		e.must("delete", c.Delete(c.P("b"), -1))
		kids, _ = c.GetChildren(c.P(""))
		e.equal("children after a delete", kids, []string{"a", "c"})
		kids, err = c.GetChildren(c.P("a"))
		if err != nil || len(kids) != 0 {
			e.Errorf("children of a leaf: %v %v", kids, err)
		}
		e.cleanup(c)
	}},
}

var atomic = []testCase{
	{"Commit", func(e *env) {
		c := e.client()
		app := c.P("app")
		e.must("create", c.CreateR("app", []byte("v0")))
		res, err := c.Multi(
			faaskeeper.CheckOp(app, 0),
			faaskeeper.CreateOp(app+"/a", []byte("one"), 0),
			faaskeeper.CreateOp(app+"/b", []byte("two"), 0),
			faaskeeper.SetDataOp(app, []byte("v1"), 0),
		)
		e.must("multi", err)
		if len(res) != 4 {
			e.Fatalf("results: %+v", res)
		}
		for i, want := range []string{"check " + app, "create " + app + "/a", "create " + app + "/b", "set_data " + app} {
			e.equal(fmt.Sprint("result ", i), fmt.Sprint(res[i].Type, " ", res[i].Path, " ", res[i].Code), want+" ok")
		}
		txid := res[1].Txid
		if txid == 0 || res[2].Txid != txid || res[3].Txid != txid || res[0].Txid != 0 {
			e.Errorf("txids %d %d %d %d: the writes share one, the check has none", res[0].Txid, res[1].Txid, res[2].Txid, res[3].Txid)
		}
		e.equal("set_data's version", res[3].Stat.Version, 1)
		data, st, err := c.GetData(app)
		if err != nil || string(data) != "v1" || st.Version != 1 || st.Mzxid != txid || st.NumChildren != 2 {
			e.Errorf("after multi: %q %+v %v", data, st, err)
		}
		if st, _ := c.Exists(app + "/a"); st == nil || st.Czxid != txid {
			e.Errorf("created by multi: %+v, want czxid %d", st, txid)
		}
		res, err = c.Multi(faaskeeper.CheckOp(app, 1))
		if err != nil || len(res) != 1 || res[0].Code != "ok" {
			e.Errorf("checks only: %+v %v", res, err)
		}
		e.cleanup(c)
	}},
	{"Abort", func(e *env) {
		c := e.client()
		app := c.P("app")
		e.must("create", c.CreateR("app/a", []byte("v0")))
		for _, tc := range []struct {
			ops   []faaskeeper.MultiOp
			want  error
			codes []string
		}{
			{[]faaskeeper.MultiOp{faaskeeper.SetDataOp(app+"/a", []byte("v1"), 0), faaskeeper.CheckOp(app, 9)},
				faaskeeper.ErrBadVersion, []string{"txn_aborted", "bad_version"}},
			{[]faaskeeper.MultiOp{faaskeeper.CreateOp(app+"/new", nil, 0), faaskeeper.DeleteOp(app+"/missing", -1), faaskeeper.SetDataOp(app+"/a", nil, -1)},
				faaskeeper.ErrNoNode, []string{"txn_aborted", "no_node", "txn_aborted"}},
			{[]faaskeeper.MultiOp{faaskeeper.CreateOp(app+"/b", nil, 0), faaskeeper.CreateOp(app+"/b", nil, 0)},
				faaskeeper.ErrNodeExists, []string{"txn_aborted", "node_exists"}},
		} {
			res, err := c.Multi(tc.ops...)
			e.is("aborted multi", err, tc.want)
			var codes []string
			for i, r := range res {
				codes = append(codes, r.Code)
				e.equal("aborted op's path", r.Path, tc.ops[i].Path)
			}
			e.equal("codes", codes, tc.codes)
		}
		data, st, _ := c.GetData(app + "/a")
		kids, _ := c.GetChildren(app)
		if string(data) != "v0" || st.Version != 0 || len(kids) != 1 {
			e.Errorf("an aborted multi wrote: %q %+v %v", data, st, kids)
		}
		_, err := c.SetData(app+"/a", []byte("after"), 0)
		e.is("a write after the aborts", err, nil)
		e.cleanup(c)
	}},
	{"Sequential", func(e *env) {
		c := e.client()
		q := c.P("q")
		e.must("create", c.CreateR("q", nil))
		res, err := c.Multi(
			faaskeeper.CreateOp(q+"/n-", nil, faaskeeper.FlagSequential),
			faaskeeper.CreateOp(q+"/n-", nil, faaskeeper.FlagSequential),
			faaskeeper.CreateOp(q+"/eph", nil, faaskeeper.FlagEphemeral),
		)
		e.must("multi", err)
		e.equal("paths", []string{res[0].Path, res[1].Path, res[2].Path}, []string{seq(q+"/n-", 0), seq(q+"/n-", 1), q + "/eph"})
		if st, _ := c.Exists(q + "/eph"); st == nil || st.Owner != c.ID() {
			e.Errorf("ephemeral created by multi: %+v", st)
		}
		e.cleanup(c)
	}},
}

var watch = []testCase{
	{"Data", func(e *env) {
		writer, watcher := e.client(), e.client()
		p := writer.P("cfg")
		e.must("create", writer.CreateR("cfg", []byte("v1")))
		e.s.Sleep(settle)
		var got events
		_, _, err := watcher.GetDataW(p, got.cb)
		e.must("watch", err)
		_, err = writer.SetData(p, []byte("v2"), -1)
		e.must("set", err)
		e.s.Sleep(settle)
		_, err = writer.SetData(p, []byte("v3"), -1) // one-shot: no second fire
		e.must("set", err)
		e.s.Sleep(settle)
		e.equal("events", got, events{"data_changed " + p})
		e.cleanup(watcher, writer)
	}},
	{"ExistsAndChild", func(e *env) {
		writer, watcher := e.client(), e.client()
		p := writer.P("new")
		e.s.Sleep(settle)
		var created, listed events
		st, err := watcher.ExistsW(p, created.cb)
		if err != nil || st != nil {
			e.Errorf("exists watch on a missing node: %v %v", st, err)
		}
		_, err = watcher.GetChildrenW(writer.P(""), listed.cb)
		e.must("child watch", err)
		_, err = writer.Create(p, nil, 0)
		e.must("create", err)
		e.s.Sleep(settle)
		e.equal("exists events", created, events{"created " + p})
		e.equal("child events", listed, events{"children_changed " + writer.P("")})
		e.cleanup(watcher, writer)
	}},
	{"Delete", func(e *env) {
		writer, watcher := e.client(), e.client()
		p := writer.P("node")
		e.must("create", writer.CreateR("node", nil))
		e.s.Sleep(settle)
		var data, exists, listed events
		_, _, err := watcher.GetDataW(p, data.cb)
		e.must("data watch", err)
		_, err = watcher.ExistsW(p, exists.cb)
		e.must("exists watch", err)
		_, err = watcher.GetChildrenW(writer.P(""), listed.cb)
		e.must("child watch", err)
		e.must("delete", writer.Delete(p, -1))
		e.s.Sleep(settle)
		e.equal("data events", data, events{"deleted " + p})
		e.equal("exists events", exists, events{"deleted " + p})
		e.equal("child events", listed, events{"children_changed " + writer.P("")})
		e.cleanup(watcher, writer)
	}},
	{"Order", func(e *env) {
		writer, watcher := e.client(), e.client()
		p := writer.P("cfg")
		e.must("create", writer.CreateR("cfg", []byte("0")))
		e.s.Sleep(settle)
		var got []faaskeeper.Notification
		record := func(n faaskeeper.Notification) { got = append(got, n) }
		_, _, err := watcher.GetDataW(p, record)
		e.must("data watch", err)
		_, err = watcher.GetChildrenW(writer.P(""), record)
		e.must("child watch", err)
		_, err = writer.SetData(p, []byte("1"), -1)
		e.must("set", err)
		_, err = writer.Create(writer.P("other"), nil, 0)
		e.must("create", err)
		e.s.Sleep(settle)
		if len(got) != 2 || got[0].Event.String() != "data_changed" || got[1].Event.String() != "children_changed" || got[0].Txid >= got[1].Txid {
			e.Errorf("notifications out of write order: %+v", got)
		}
		e.cleanup(watcher, writer)
	}},
	{"RearmInCallback", func(e *env) {
		writer, watcher := e.client(), e.client()
		p := writer.P("cfg")
		e.must("create", writer.CreateR("cfg", []byte{0}))
		e.s.Sleep(settle)
		var seen []byte
		var arm func(faaskeeper.Notification)
		arm = func(faaskeeper.Notification) {
			data, _, err := watcher.GetDataW(p, arm) // a synchronous call from the callback
			if err != nil {
				e.Errorf("re-arm: %v", err)
			}
			seen = append(seen, data...)
		}
		arm(faaskeeper.Notification{})
		for i := byte(1); i <= 3; i++ {
			_, err := writer.SetData(p, []byte{i}, -1)
			e.must("set", err)
			e.s.Sleep(settle)
		}
		e.equal("data read by each arming", seen, []byte{0, 1, 2, 3})
		e.cleanup(watcher, writer)
	}},
	{"LatestRegistrationWins", func(e *env) {
		c := e.client()
		p := c.P("cfg")
		e.must("create", c.CreateR("cfg", nil))
		var first, second events
		_, _, err := c.GetDataW(p, first.cb)
		e.must("watch", err)
		_, _, err = c.GetDataW(p, second.cb)
		e.must("watch again", err)
		_, err = c.SetData(p, []byte("v"), -1)
		e.must("set", err)
		e.s.Sleep(settle)
		e.equal("first callback", first, events(nil))
		e.equal("second callback", second, events{"data_changed " + p})
		e.cleanup(c)
	}},
}

// workers runs fn once per session, each in its own process, and waits.
func (e *env) workers(n int, fn func(i int, c *Client)) {
	wg := sim.NewWaitGroup(e.s.Kernel())
	for i := 0; i < n; i++ {
		c := e.client()
		wg.Add(1)
		e.s.Go(func() {
			defer wg.Done()
			fn(i, c)
			e.cleanup(c)
		})
	}
	wg.Wait()
}

var lock = []testCase{
	{"Mutex", func(e *env) {
		setup := e.client()
		inside, maxInside, total := 0, 0, 0
		e.workers(4, func(i int, c *Client) {
			m := recipes.NewMutex(e.s, c, setup.NS)
			for r := 0; r < 2; r++ {
				e.must("lock", m.Lock())
				inside++
				maxInside = max(maxInside, inside)
				total++
				e.s.Sleep(100 * time.Millisecond)
				inside--
				e.must("unlock", m.Unlock())
			}
		})
		if maxInside != 1 || total != 8 {
			e.Errorf("%d holders at once, %d acquisitions", maxInside, total)
		}
		e.cleanup(setup)
	}},
	{"Election", func(e *env) {
		setup := e.client()
		var order []int
		var cands []*Client
		var elections []*recipes.Election
		for i := 0; i < 3; i++ {
			c := e.client()
			el := recipes.NewElection(e.s, c, setup.NS, func() { order = append(order, i) })
			e.must("campaign", el.Campaign())
			cands, elections = append(cands, c), append(elections, el)
			e.s.Sleep(settle)
		}
		e.equal("leaders", order, []int{0})
		e.must("resign", elections[0].Resign())
		e.s.Sleep(settle)
		e.equal("leaders after a resignation", order, []int{0, 1})
		e.must("close", cands[1].Close()) // its candidate node is ephemeral
		e.s.Sleep(settle)
		e.equal("leaders after a session closed", order, []int{0, 1, 2})
		e.must("close", cands[0].Close())
		e.cleanup(cands[2], setup)
	}},
	{"Barrier", func(e *env) {
		setup := e.client()
		const parties = 3
		entered, passed := 0, 0
		e.workers(parties, func(i int, c *Client) {
			b := recipes.NewBarrier(e.s, c, setup.NS, fmt.Sprint("p", i), parties)
			e.s.Sleep(time.Duration(i) * 2 * time.Second) // staggered arrivals
			entered++
			e.must("enter", b.Enter())
			if entered != parties {
				e.Errorf("party %d passed with %d arrived", i, entered)
			}
			passed++
			e.must("leave", b.Leave())
		})
		e.equal("passed", passed, parties)
		e.cleanup(setup)
	}},
	{"Queue", func(e *env) {
		setup := e.client()
		var got [][]byte
		var firstPut, firstTake time.Duration
		e.workers(2, func(i int, c *Client) {
			q := recipes.NewQueue(e.s, c, setup.NS)
			if i == 0 { // the consumer blocks until the producer's first put
				for len(got) < 3 {
					data, err := q.Take()
					e.must("take", err)
					if got = append(got, data); len(got) == 1 {
						firstTake = e.s.Now()
					}
				}
				return
			}
			e.s.Sleep(settle)
			firstPut = e.s.Now()
			for _, item := range []string{"a", "b", "c"} {
				e.must("put", q.Put([]byte(item)))
			}
		})
		e.equal("taken", fmt.Sprintf("%s", got), "[a b c]")
		if firstTake < firstPut {
			e.Errorf("a take returned at %v, before the first put at %v", firstTake, firstPut)
		}
		e.cleanup(setup)
	}},
}

var session = []testCase{
	{"Writers", func(e *env) {
		c := e.client()
		p := c.P("x")
		e.must("create", c.CreateR("x", nil))
		var last int64
		for i := 1; i <= 5; i++ { // read-your-writes, monotonic reads
			_, err := c.SetData(p, []byte(fmt.Sprint(i)), -1)
			e.must("set", err)
			data, st, err := c.GetData(p)
			if err != nil || string(data) != fmt.Sprint(i) || st.Mzxid < last {
				e.Errorf("read %d after its write: %q %+v %v", i, data, st, err)
			}
			last = st.Mzxid
		}
		e.workers(2, func(i int, w *Client) { // no lost update between sessions
			for n := 0; n < 5; n++ {
				_, err := w.SetData(p, []byte(w.ID()), -1)
				e.must("concurrent set", err)
			}
		})
		e.s.Sleep(settle)
		_, st, err := c.GetData(p)
		e.must("get", err)
		e.equal("version after 15 writes", st.Version, 15)
		e.cleanup(c)
	}},
	{"Closed", func(e *env) {
		c := e.client()
		p := c.P("")
		e.must("close", c.Close())
		closed := faaskeeper.ErrSessionClosed
		_, err := c.Create(p+"/x", nil, 0)
		e.is("create", err, closed)
		_, err = c.SetData(p, nil, -1)
		e.is("set", err, closed)
		e.is("delete", c.Delete(p, -1), closed)
		_, err = c.Multi(faaskeeper.CheckOp(p, -1))
		e.is("multi", err, closed)
		_, _, err = c.GetData(p)
		e.is("get", err, closed)
		_, err = c.Exists(p)
		e.is("exists", err, closed)
		_, err = c.GetChildrenW(p, func(faaskeeper.Notification) {})
		e.is("children", err, closed)
		e.is("close twice", c.Close(), nil)
	}},
	{"EphemeralReaped", func(e *env) {
		owner, other := e.client(), e.client()
		p := owner.P("w1")
		_, err := owner.Create(p, nil, faaskeeper.FlagEphemeral)
		e.must("create ephemeral", err)
		_, err = owner.Multi(faaskeeper.CreateOp(owner.P("w2"), nil, faaskeeper.FlagEphemeral))
		e.must("create ephemeral by multi", err)
		e.s.Sleep(settle)
		var gone, listed events
		st, err := other.ExistsW(p, gone.cb)
		if err != nil || st == nil || !st.Ephemeral || st.Owner != owner.ID() {
			e.Errorf("ephemeral seen by another session: %+v %v", st, err)
		}
		_, err = other.GetChildrenW(owner.P(""), listed.cb)
		e.must("child watch", err)
		e.must("close", owner.Close())
		e.s.Sleep(settle)
		if kids, err := other.GetChildren(owner.P("")); len(kids) != 0 || err != nil {
			e.Errorf("ephemerals after their session closed: %v %v", kids, err)
		}
		if st, _ := other.Exists(owner.P("")); st == nil {
			e.Errorf("the ephemeral's parent went with it")
		}
		e.equal("exists events", gone, events{"deleted " + p})
		e.equal("child events", listed, events{"children_changed " + owner.P("")})
		e.must("delete the closed session's namespace", other.deleteR(owner.NS))
		e.cleanup(other)
	}},
}
