package fkclient

// Regression tests for two rules that once held on one write path and had
// drifted on another (the paths now read one table, core/writeop.go).

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// crashOnce is a one-shot sim.FaultHook: the first function to reach the
// stage dies there.
type crashOnce struct {
	stage string
	fired bool
}

func (h *crashOnce) Crash(stage, _ string, _ int64) bool {
	if h.fired || stage != h.stage {
		return false
	}
	h.fired = true
	return true
}
func (*crashOnce) Redeliver(string) bool         { return false }
func (*crashOnce) DeliveryDelay(string) sim.Time { return 0 }
func (*crashOnce) OpDelay() sim.Time             { return 0 }

// TestEphemeralCommittedByLeaderReplayIsReapedOnClose: a function that dies
// between its leader-queue push and its commit leaves the create to the
// leader's replay, and the node must still be on its session's record when
// the session closes — whether it was created alone or through multi().
func TestEphemeralCommittedByLeaderReplayIsReapedOnClose(t *testing.T) {
	for _, tc := range []struct {
		name, stage string
		create      func(c *Client) error
	}{
		{"create", obs.StageLeaderQ, func(c *Client) error {
			_, err := c.Create("/e", nil, znode.FlagEphemeral)
			return err
		}},
		{"multi", obs.StageTxnPrep, func(c *Client) error {
			_, err := c.Multi(txn.Create("/e", nil, znode.FlagEphemeral))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, 21, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
				hook := &crashOnce{stage: tc.stage}
				k.SetFaultHook(hook)
				owner := mustConnect(t, d, "owner")
				if err := tc.create(owner); err != nil {
					t.Fatalf("create: %v", err)
				}
				if !hook.fired {
					t.Fatal("no crash was injected: the test exercised nothing")
				}
				other := mustConnect(t, d, "other")
				defer other.Close()
				if st, err := other.Exists("/e"); err != nil || st == nil || st.Owner != "owner" {
					t.Fatalf("the replayed create did not land: %+v %v", st, err)
				}
				if err := owner.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if st, err := other.Exists("/e"); err != nil || st != nil {
					t.Errorf("ephemeral leaked past its session's close: %+v %v", st, err)
				}
			})
		})
	}
}

// TestSetDataOverflowingLeaderQueueIsTooLarge: the leader message of a
// set_data carries the node's child list, so data within MaxNodeB can still
// overflow the queue's message limit — which is too_large, as for a create
// and a multi(), not a system error.
func TestSetDataOverflowingLeaderQueueIsTooLarge(t *testing.T) {
	run(t, 22, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		if _, err := c.Create("/big", nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 300; i++ {
			if _, err := c.Create(fmt.Sprintf("/big/%s-%03d", strings.Repeat("child", 6), i), nil, 0); err != nil {
				t.Fatalf("create child %d: %v", i, err)
			}
		}
		if _, err := c.SetData("/big", make([]byte, core.MaxNodeB), -1); !errors.Is(err, core.ErrTooLarge) {
			t.Errorf("250 kB set_data on a node with 300 children: %v, want ErrTooLarge", err)
		}
		if _, err := c.SetData("/big", []byte("small"), -1); err != nil {
			t.Errorf("the node stayed locked after the rejected set_data: %v", err)
		}
	})
}
