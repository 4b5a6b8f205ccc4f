package conform

import (
	"testing"

	"faaskeeper"
)

// TestConform runs the suite on three targets: FaaSKeeper's paper preset,
// its scaled preset (the bench's scaled row: 4 shards, batched writes, the
// regional cache, the kv user store) and a 3-server ZooKeeper ensemble.
func TestConform(t *testing.T) {
	fk := func(opts faaskeeper.DeploymentOptions) Deploy {
		return func(s *faaskeeper.Simulation) Connect {
			d := s.DeployFaaSKeeper(opts)
			return func(id string) (faaskeeper.Session, error) { return d.Connect(id) }
		}
	}
	targets := []struct {
		name   string
		deploy Deploy
	}{
		{"paper", fk(faaskeeper.DeploymentOptions{})},
		{"scaled", fk(faaskeeper.DeploymentOptions{
			WriteShards: 4, BatchWrites: true, CacheMode: faaskeeper.CacheRegional, UserStore: faaskeeper.StoreKV,
		})},
		{"zk", func(s *faaskeeper.Simulation) Connect {
			z, n := s.DeployZooKeeper(3), 0
			return func(string) (faaskeeper.Session, error) { n++; return z.Connect(n % 3) }
		}},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) { Run(t, tg.deploy) })
	}
}
