package shardmap

import (
	"errors"
	"strconv"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
)

// The durable map lives in one system-store item. The routing table itself
// is a binary blob (wire.go); the per-shard generations are mirrored into
// numeric attributes so a writer's commit transaction can pin "my shard's
// routing has not changed since I routed" with a plain conditional check —
// the same single-item conditional-expression primitive every other
// FaaSKeeper protocol builds on.
const (
	// DefaultKey is the system-store key of the shard map item.
	DefaultKey = "shardmap"

	attrMapBlob  = "map"
	attrMapEpoch = "epoch"
	genAttrPre   = "g"
)

// ErrNoMap is returned when the map item is missing (a deployment that
// never enabled dynamic sharding).
var ErrNoMap = errors.New("shardmap: no shard map stored")

// GenAttr names the per-shard generation attribute.
func GenAttr(shard int) string { return genAttrPre + strconv.Itoa(shard) }

// GenCond is the commit guard: the shard's stored generation still equals
// gen. Generation 0 also matches a never-bumped (absent) attribute.
func GenCond(shard int, gen int64) kv.Cond {
	eq := kv.Eq{Name: GenAttr(shard), V: kv.N(gen)}
	if gen == 0 {
		return kv.Or{kv.AttrNotExists{Name: GenAttr(shard)}, eq}
	}
	return eq
}

// Store reads and writes the durable map item.
type Store struct {
	tbl *kv.Table
	key string
}

// NewStore binds a store to the deployment's system table.
func NewStore(tbl *kv.Table) *Store {
	return &Store{tbl: tbl, key: DefaultKey}
}

// Key returns the map item's key (commit guards reference it).
func (s *Store) Key() string { return s.key }

func (s *Store) item(m *Map) kv.Item {
	it := kv.Item{
		{Name: attrMapBlob, V: kv.B(encodeMap(m))},
		{Name: attrMapEpoch, V: kv.N(m.Epoch)},
	}
	for shard, gen := range m.Gens {
		it.Set(GenAttr(shard), kv.N(gen))
	}
	return it
}

// Seed stores the epoch-0 map at deployment time, free of charge (the
// deployment bootstrap, like the tree root).
func (s *Store) Seed(m *Map) { s.tbl.SeedPut(s.key, s.item(m)) }

// Load reads the current map with a strongly consistent get.
func (s *Store) Load(ctx cloud.Ctx) (*Map, error) {
	it, ok := s.tbl.GetView(ctx, s.key, true)
	if !ok {
		return nil, ErrNoMap
	}
	return decodeMap(it.Get(attrMapBlob).Byt)
}

// Write replaces the durable map. Reshard transitions are serialized by
// the engine's timed lock, so the write is unconditional.
func (s *Store) Write(ctx cloud.Ctx, m *Map) error {
	return s.tbl.Put(ctx, s.key, s.item(m), nil)
}
