package fkclient

// The consistency suite: randomized multi-client histories checked against
// the four ZooKeeper guarantees (Appendix A of the paper) as implemented
// by FaaSKeeper (Appendix B).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// observation is one client's view of a committed operation.
type observation struct {
	session string
	seq     int64
	txid    int64
}

// randomHistory drives nClients performing random writes over a small path
// set and returns per-session commit observations plus the deployment.
func randomHistory(t *testing.T, seed int64, cfg core.Config, nClients, opsPerClient int, hook ...sim.FaultHook) (map[string][]observation, *core.Deployment) {
	t.Helper()
	k := sim.NewKernel(seed)
	for _, h := range hook {
		k.SetFaultHook(h)
	}
	d := core.NewDeployment(k, cfg)
	obs := map[string][]observation{}
	paths := []string{"/a", "/b", "/c", "/a/x", "/b/y"}

	k.Go("driver", func() {
		setup, err := Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			t.Errorf("setup connect: %v", err)
			return
		}
		setup.Create("/a", nil, 0)
		setup.Create("/b", nil, 0)
		setup.Create("/c", nil, 0)

		done := sim.NewWaitGroup(k)
		for ci := 0; ci < nClients; ci++ {
			id := fmt.Sprintf("s%d", ci)
			r := rand.New(rand.NewSource(seed + int64(ci)*101))
			done.Add(1)
			k.Go(id, func() {
				defer done.Done()
				c, err := Connect(d, id, d.Cfg.Profile.Home)
				if err != nil {
					t.Errorf("%s connect: %v", id, err)
					return
				}
				defer c.Close()
				var mine []observation
				lastRead := map[string]int64{}
				for op := 0; op < opsPerClient; op++ {
					path := paths[r.Intn(len(paths))]
					switch r.Intn(10) {
					case 0, 1, 2, 3: // set
						st, err := c.SetData(path, []byte(id), -1)
						if err == nil {
							mine = append(mine, observation{id, int64(op), st.Mzxid})
						} else if !isExpectedError(err) {
							t.Errorf("%s set %s: %v", id, path, err)
						}
					case 4: // create
						_, err := c.Create(path, []byte(id), 0)
						if err != nil && !isExpectedError(err) {
							t.Errorf("%s create %s: %v", id, path, err)
						}
					case 5: // delete
						err := c.Delete(path, -1)
						if err != nil && !isExpectedError(err) {
							t.Errorf("%s delete %s: %v", id, path, err)
						}
					default: // read; Z3: per-node mzxid must never regress
						_, st, err := c.GetData(path)
						if err == nil {
							if st.Mzxid < lastRead[path] {
								t.Errorf("%s: Z3 violated on %s: mzxid %d after %d",
									id, path, st.Mzxid, lastRead[path])
							}
							lastRead[path] = st.Mzxid
						} else if !isExpectedError(err) {
							t.Errorf("%s read %s: %v", id, path, err)
						}
					}
					k.Sleep(sim.Time(r.Intn(40)) * sim.Ms(1))
				}
				obs[id] = mine
			})
		}
		done.Wait()
		setup.Close()
	})
	k.Run()
	k.Shutdown()
	return obs, d
}

func isExpectedError(err error) bool {
	return errors.Is(err, core.ErrNoNode) || errors.Is(err, core.ErrNodeExists) ||
		errors.Is(err, core.ErrBadVersion) || errors.Is(err, core.ErrNotEmpty)
}

// verifyZ2 checks linearized writes: within one session, commit txids are
// strictly increasing in submission order.
func verifyZ2(t *testing.T, obs map[string][]observation) {
	t.Helper()
	for id, list := range obs {
		for i := 1; i < len(list); i++ {
			if list[i].txid <= list[i-1].txid {
				t.Errorf("%s: Z2 violated: txid %d after %d", id, list[i].txid, list[i-1].txid)
			}
		}
	}
}

// verifyTreeIntegrity checks Z1's end state: system metadata, user store,
// and parent/child links agree.
func verifyTreeIntegrity(t *testing.T, d *core.Deployment) {
	t.Helper()
	k := sim.NewKernel(999)
	// Walk the user store through a fresh kernel-less reader: use Peek via
	// a tiny sim run.
	done := false
	k2 := d.K
	_ = k
	k2.Go("verify", func() {
		ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
		store := d.PrimaryStore()
		var walk func(path string)
		walk = func(path string) {
			n, _, err := store.Read(ctx, path)
			if err != nil {
				t.Errorf("integrity: read %s: %v", path, err)
				return
			}
			for _, child := range n.Children {
				childPath := znode.Join(path, child)
				cn, _, err := store.Read(ctx, childPath)
				if err != nil {
					t.Errorf("integrity: %s lists child %s but it is unreadable: %v", path, child, err)
					continue
				}
				if cn.Path != childPath {
					t.Errorf("integrity: %s stored under wrong path %s", childPath, cn.Path)
				}
				walk(childPath)
			}
		}
		walk(znode.Root)
		done = true
	})
	k2.Run()
	k2.Shutdown()
	if !done {
		t.Error("integrity walk did not finish")
	}
}

func TestConsistencyRandomizedHistories(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			obs, d := randomHistory(t, seed, core.Config{}, 4, 12)
			verifyZ2(t, obs)
			verifyTreeIntegrity(t, d)
		})
	}
}

func TestConsistencyUnderFollowerCrashes(t *testing.T) {
	obs, d := randomHistory(t, 777, core.Config{Retries: 3}, 3, 10, newCrashAfterPush(777, 0.15))
	verifyZ2(t, obs)
	verifyTreeIntegrity(t, d)
}

func TestConsistencyHybridStore(t *testing.T) {
	obs, d := randomHistory(t, 555, core.Config{UserStore: core.StoreHybrid}, 3, 10)
	verifyZ2(t, obs)
	verifyTreeIntegrity(t, d)
}

// TestSingleSystemImageConvergence: after all writes settle, every client
// observes the same final state (Z3's "single system image").
func TestSingleSystemImageConvergence(t *testing.T) {
	k := sim.NewKernel(31)
	d := core.NewDeployment(k, core.Config{})
	finals := map[string]string{}
	k.Go("driver", func() {
		w, _ := Connect(d, "writer", d.Cfg.Profile.Home)
		w.Create("/conv", nil, 0)
		for i := 0; i < 10; i++ {
			w.SetData("/conv", []byte(fmt.Sprintf("v%d", i)), -1)
		}
		w.Close()
		for ci := 0; ci < 3; ci++ {
			id := fmt.Sprintf("reader%d", ci)
			c, _ := Connect(d, id, d.Cfg.Profile.Home)
			data, _, err := c.GetData("/conv")
			if err != nil {
				t.Errorf("%s: %v", id, err)
			}
			finals[id] = string(data)
			c.Close()
		}
	})
	k.Run()
	k.Shutdown()
	for id, v := range finals {
		if v != "v9" {
			t.Errorf("%s saw %q, want v9", id, v)
		}
	}
}

// TestAcceptedUpdatesNeverRollBack: a committed write stays visible even
// across injected follower crashes and retries (Z3 "accepted updates are
// never rolled back").
func TestAcceptedUpdatesNeverRollBack(t *testing.T) {
	k := sim.NewKernel(67)
	k.SetFaultHook(newCrashAfterPush(67, 0.3))
	d := core.NewDeployment(k, core.Config{Retries: 3})
	k.Go("driver", func() {
		c, _ := Connect(d, "s", d.Cfg.Profile.Home)
		defer c.Close()
		c.Create("/r", nil, 0)
		lastCommitted := int32(-1)
		for i := 0; i < 15; i++ {
			st, err := c.SetData("/r", []byte{byte(i)}, -1)
			if err != nil {
				continue
			}
			if st.Version <= lastCommitted {
				t.Errorf("version rolled back: %d after %d", st.Version, lastCommitted)
			}
			lastCommitted = st.Version
			_, rst, err := c.GetData("/r")
			if err != nil {
				t.Errorf("read: %v", err)
				continue
			}
			if rst.Version < lastCommitted {
				t.Errorf("read version %d below committed %d", rst.Version, lastCommitted)
			}
		}
	})
	k.Run()
	k.Shutdown()
}
