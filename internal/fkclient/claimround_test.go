package fkclient_test

// The watch claim's round seen from the client: its two writes — the clear
// of the fired group and the epoch append — land in either order, and no
// history tells: histcheck.Check finds nothing in the recorded history.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/histcheck"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// holdProcs is a sim.FaultHook that holds every storage operation of the
// processes whose names start with prefix open for extra.
type holdProcs struct {
	k      *sim.Kernel
	prefix string
	extra  sim.Time
}

func (*holdProcs) Crash(string, string, int64) bool { return false }
func (*holdProcs) Redeliver(string) bool            { return false }
func (*holdProcs) DeliveryDelay(string) sim.Time    { return 0 }
func (h *holdProcs) OpDelay() sim.Time {
	if strings.HasPrefix(h.k.Current().Name(), h.prefix) {
		return h.extra
	}
	return 0
}

// TestWatchClaimRoundLandsInEitherOrder runs a two-shard deployment where a
// watcher re-arms a data watch on /a in its callback while /a is set over
// and over, /b — on the other shard — is set in between, and a reader reads
// both. The leader's handler issues the clear of /a's fired group and a
// process of its own the epoch append: holding the handler's operations
// open makes the append land first, so the other shard's opening read can
// see the id while the registration is still on /a's record; holding the
// append's makes the clear land first. Either way histcheck.Check finds nothing
// in the history, and the watcher hears of every set.
func TestWatchClaimRoundLandsInEitherOrder(t *testing.T) {
	for _, tc := range []struct{ name, prefix string }{
		{"append lands first", "trigger:" + core.FnLeader + ":"},
		{"clear lands first", "leader-epoch-"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sets = 8
			k := sim.NewKernel(23)
			d := core.NewDeployment(k, core.Config{WriteShards: 2})
			k.SetFaultHook(&holdProcs{k: k, prefix: tc.prefix, extra: 30 * time.Millisecond})
			var a, b string
			for i := 0; a == "" || b == ""; i++ {
				p := fmt.Sprintf("/n%d", i)
				if core.ShardOf(p, 2) == 0 && a == "" {
					a = p
				} else if core.ShardOf(p, 2) == 1 && b == "" {
					b = p
				}
			}
			h := &histcheck.History{}
			var acked, heard []int64
			k.Go("main", func() {
				connect := func(id string) *fkclient.Client {
					c, err := fkclient.Connect(d, id, d.Cfg.Profile.Home)
					if err != nil {
						t.Errorf("connect %s: %v", id, err)
					}
					return c
				}
				w, o, r, v := connect("w"), connect("o"), connect("r"), connect("v")
				if w == nil || o == nil || r == nil || v == nil {
					return
				}
				write := func(c *fkclient.Client, session, op, path, value string) {
					start := k.Now()
					var st znode.Stat
					var err error
					if op == "create" {
						_, err = c.Create(path, []byte(value), 0)
					} else {
						st, err = c.SetData(path, []byte(value), -1)
					}
					h.Add(histcheck.Event{Session: session, Kind: histcheck.KindWrite, Op: op, Path: path, Value: value,
						Mzxid: st.Mzxid, Start: start, End: k.Now(), Err: errStr(err)})
					if err != nil {
						t.Errorf("%s %s %s: %v", session, op, path, err)
					} else if session == "w" && op == "set" {
						acked = append(acked, st.Mzxid)
					}
				}
				write(w, "w", "create", a, "a0")
				write(o, "o", "create", b, "b0")

				wid := core.WatchID(a, core.WatchData)
				var arm func()
				cb := func(n core.Notification) {
					h.Add(histcheck.Event{Session: "v", Kind: histcheck.KindWatchFire, Path: n.Path,
						Mzxid: n.Txid, WatchID: n.WatchID, Start: k.Now(), End: k.Now()})
					heard = append(heard, n.Txid)
					arm()
				}
				arm = func() {
					start := k.Now()
					_, st, err := v.GetDataW(a, cb)
					h.Add(histcheck.Event{Session: "v", Kind: histcheck.KindWatchArm, Path: a,
						Mzxid: st.Mzxid, WatchID: wid, Start: start, End: k.Now(), Err: errStr(err)})
					if err != nil {
						t.Errorf("arm %s: %v", a, err)
					}
				}
				arm()

				done := false
				k.Go("other-shard", func() {
					for i := 1; !done; i++ {
						write(o, "o", "set", b, fmt.Sprintf("b%d", i))
						k.Sleep(100 * time.Millisecond)
					}
				})
				k.Go("reader", func() {
					for !done {
						for _, p := range []string{b, a} {
							start := k.Now()
							data, st, err := r.GetData(p)
							h.Add(histcheck.Event{Session: "r", Kind: histcheck.KindRead, Op: "get", Path: p, Value: string(data),
								Mzxid: st.Mzxid, Start: start, End: k.Now(), Err: errStr(err)})
						}
						k.Sleep(20 * time.Millisecond)
					}
				})
				for i := 1; i <= sets; i++ {
					write(w, "w", "set", a, fmt.Sprintf("a%d", i))
					k.Sleep(400 * time.Millisecond)
				}
				done = true
				k.Sleep(5 * time.Second)
			})
			k.Run()
			k.Shutdown()

			if vs := histcheck.Check(h, histcheck.CheckOpts{OpenSessions: map[string]bool{"v": true}}); len(vs) > 0 {
				t.Errorf("%d violations, first: %s", len(vs), vs[0])
			}
			if len(acked) != sets || len(heard) != sets {
				t.Fatalf("%d sets acked, %d notifications heard; want %d each", len(acked), len(heard), sets)
			}
			for i := range acked {
				if heard[i] != acked[i] {
					t.Errorf("notification %d carries txid %d, want set %d's %d", i, heard[i], i+1, acked[i])
				}
			}
		})
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
