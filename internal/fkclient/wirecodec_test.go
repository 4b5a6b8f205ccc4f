package fkclient

import (
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

// TestWireCodecConfigRejected pins the config validation of the inert
// Config.WireCodec name: "" and "binary" deploy, anything else — the
// deleted "gob" included — fails fast at deployment time instead of
// silently running a format the caller did not ask for.
func TestWireCodecConfigRejected(t *testing.T) {
	for _, name := range []string{"", "binary"} {
		k := sim.NewKernel(1)
		core.NewDeployment(k, core.Config{WireCodec: name})
		k.Shutdown()
	}
	for _, name := range []string{"protobuf", "gob"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WireCodec %q accepted", name)
				}
			}()
			core.NewDeployment(sim.NewKernel(1), core.Config{WireCodec: name})
		}()
	}
}
