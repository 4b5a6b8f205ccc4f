package core

import (
	"errors"
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/object"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// StoreKind selects the user data store backend (Section 4.2).
type StoreKind string

// Available user store backends.
const (
	StoreObject StoreKind = "object" // S3 / Cloud Storage
	StoreKV     StoreKind = "kv"     // DynamoDB / Datastore
	StoreHybrid StoreKind = "hybrid" // small nodes in KV, large in object storage
	StoreMem    StoreKind = "mem"    // Redis-like in-memory cache on a VM
)

// Validate reports a value that names no backend, listing the ones that
// do (Config.defaults panics with it; fkcli prints it and exits 2).
func (k StoreKind) Validate() error {
	switch k {
	case StoreObject, StoreKV, StoreHybrid, StoreMem:
		return nil
	}
	return fmt.Errorf("unknown user store %q (want %s|%s|%s|%s)", string(k),
		StoreObject, StoreKV, StoreHybrid, StoreMem)
}

// ErrUserNoNode is returned when a read misses.
var ErrUserNoNode = errors.New("core: node not in user store")

// UserStore is the read-optimized, strongly consistent store clients read
// from directly. Writes always replace the full serialized node (no
// partial updates in cloud object stores — Requirement #6), stamped with
// the epoch list for watch ordering.
type UserStore interface {
	Kind() StoreKind
	Region() cloud.Region
	Write(ctx cloud.Ctx, o Object) error
	Read(ctx cloud.Ctx, path string) (*znode.Node, []int64, error)
	Delete(ctx cloud.Ctx, path string) error
	// Seed stores a node with no latency or billing (deployment bootstrap).
	Seed(n *znode.Node)
	// StoredBytes reports retained bytes for storage-cost accounting.
	StoredBytes() int
}

// Object is one node's user-store object: the node, the epoch stamp it
// carries, and Blob, the node marshaled with that stamp. The stores keep
// Blob, so a flush marshals each object once and installs the same blob in
// the regional cache; nobody writes into it afterwards. They keep nothing
// else: a flush's Node lives in its fold, which the next flush reuses. A
// nil Node deletes Path (ApplyBatch).
type Object struct {
	Path  string
	Node  *znode.Node
	Epoch []int64
	Blob  []byte
}

// NewObject marshals n under its epoch stamp.
func NewObject(n *znode.Node, epoch []int64) Object {
	return Object{Path: n.Path, Node: n, Epoch: epoch, Blob: znode.Marshal(n, epoch)}
}

// AtomicApplier is the optional user-store capability a committed
// transaction's distribution uses: all writes of the batch become readable
// at one instant, so no reader can observe a partially applied multi().
// KV-backed stores implement it with the table's transactional write; the
// object store cannot (S3 has no multi-key transactions), so transactions
// there fall back to applying the writes sequentially in op order —
// readers then see a prefix of the transaction, never an arbitrary mix
// (documented in the README's transaction section).
type AtomicApplier interface {
	ApplyBatch(ctx cloud.Ctx, objs []Object) error
}

// objectStore keeps every node as one object.
type objectStore struct {
	bucket *object.Bucket
}

// NewObjectStore builds an object-backed user store.
func NewObjectStore(env *cloud.Env, name string, region cloud.Region) UserStore {
	return &objectStore{bucket: object.NewBucket(env, name, region)}
}

func (s *objectStore) Kind() StoreKind      { return StoreObject }
func (s *objectStore) Region() cloud.Region { return s.bucket.Region() }
func (s *objectStore) StoredBytes() int     { return s.bucket.TotalSize() }

func (s *objectStore) Write(ctx cloud.Ctx, o Object) error {
	s.bucket.PutOwned(ctx, o.Path, o.Blob)
	return nil
}

func (s *objectStore) Read(ctx cloud.Ctx, path string) (*znode.Node, []int64, error) {
	blob, err := s.bucket.Get(ctx, path)
	if errors.Is(err, object.ErrNoSuchKey) {
		return nil, nil, ErrUserNoNode
	}
	if err != nil {
		return nil, nil, err
	}
	return znode.Unmarshal(blob)
}

func (s *objectStore) Delete(ctx cloud.Ctx, path string) error {
	s.bucket.Delete(ctx, path)
	return nil
}

func (s *objectStore) Seed(n *znode.Node) { s.bucket.SeedPut(n.Path, znode.Marshal(n, nil)) }

// kvStore keeps every node as one KV item holding the serialized blob.
type kvStore struct {
	tbl    *kv.Table
	region cloud.Region
}

// NewKVStore builds a key-value-backed user store (bills under "userkv").
func NewKVStore(env *cloud.Env, name string, region cloud.Region) UserStore {
	tbl := kv.NewTable(env, name)
	tbl.SetCostCategory("userkv")
	return &kvStore{tbl: tbl, region: region}
}

func (s *kvStore) Kind() StoreKind      { return StoreKV }
func (s *kvStore) Region() cloud.Region { return s.region }
func (s *kvStore) StoredBytes() int     { return s.tbl.TotalSize() }

func (s *kvStore) Write(ctx cloud.Ctx, o Object) error {
	return s.tbl.Put(ctx, o.Path, kv.Item{{Name: "n", V: kv.B(o.Blob)}}, nil)
}

func (s *kvStore) Read(ctx cloud.Ctx, path string) (*znode.Node, []int64, error) {
	// A read-only view suffices: Unmarshal copies everything it keeps,
	// so nothing of table storage escapes (skips cloning the node blob).
	it, ok := s.tbl.GetView(ctx, path, true)
	if !ok {
		return nil, nil, ErrUserNoNode
	}
	return znode.Unmarshal(it.Get("n").Byt())
}

func (s *kvStore) Delete(ctx cloud.Ctx, path string) error {
	return s.tbl.Delete(ctx, path, nil)
}

func (s *kvStore) Seed(n *znode.Node) {
	s.tbl.SeedPut(n.Path, kv.Item{{Name: "n", V: kv.B(znode.Marshal(n, nil))}})
}

// ApplyBatch makes all of a transaction's writes readable atomically via
// the table's transactional write (Requirement #6 has no bite here — the
// KV store does support multi-item transactions, unlike object storage).
func (s *kvStore) ApplyBatch(ctx cloud.Ctx, objs []Object) error {
	ops := make([]kv.TxOp, 0, len(objs))
	for _, o := range objs {
		if o.Node == nil {
			ops = append(ops, kv.TxOp{Key: o.Path, Delete: true})
			continue
		}
		ops = append(ops, kv.TxOp{Key: o.Path, Updates: []kv.Update{
			kv.Set{Name: "n", V: kv.B(o.Blob)},
		}})
	}
	return s.tbl.Transact(ctx, ops)
}

// hybridStore places nodes up to thresholdB fully in the KV store and
// splits larger ones: metadata in KV, data in object storage (Section 4.2
// "Hybrid storage"). Reads start at the KV store and only the infrequent
// large nodes pay the second request.
type hybridStore struct {
	tbl        *kv.Table
	bucket     *object.Bucket
	region     cloud.Region
	thresholdB int
}

// NewHybridStore builds the hybrid user store with the given spill
// threshold (the paper uses 4 kB).
func NewHybridStore(env *cloud.Env, name string, region cloud.Region, thresholdB int) UserStore {
	if thresholdB <= 0 {
		thresholdB = 4096
	}
	tbl := kv.NewTable(env, name+"-kv")
	tbl.SetCostCategory("userkv")
	return &hybridStore{
		tbl:        tbl,
		bucket:     object.NewBucket(env, name+"-spill", region),
		region:     region,
		thresholdB: thresholdB,
	}
}

func (s *hybridStore) Kind() StoreKind      { return StoreHybrid }
func (s *hybridStore) Region() cloud.Region { return s.region }
func (s *hybridStore) StoredBytes() int     { return s.tbl.TotalSize() + s.bucket.TotalSize() }

// Write stores a small node's blob as is; a large one spills its data and
// keeps its metadata, marshaled on its own, in the KV item.
func (s *hybridStore) Write(ctx cloud.Ctx, o Object) error {
	n := o.Node
	if len(n.Data) <= s.thresholdB {
		err := s.tbl.Put(ctx, n.Path, kv.Item{{Name: "n", V: kv.B(o.Blob)}}, nil)
		if err == nil {
			// A previously large node may have shrunk; drop stale spill.
			if _, had := s.bucket.Peek(n.Path); had {
				s.bucket.Delete(ctx, n.Path)
			}
		}
		return err
	}
	meta := n.Clone()
	meta.Data = nil
	meta.Stat.DataLength = int32(len(n.Data))
	if err := s.tbl.Put(ctx, n.Path, kv.Item{
		{Name: "n", V: kv.B(znode.Marshal(meta, o.Epoch))},
		{Name: "spill", V: kv.N(1)},
	}, nil); err != nil {
		return err
	}
	s.bucket.Put(ctx, n.Path, n.Data)
	return nil
}

func (s *hybridStore) Read(ctx cloud.Ctx, path string) (*znode.Node, []int64, error) {
	it, ok := s.tbl.GetView(ctx, path, true)
	if !ok {
		return nil, nil, ErrUserNoNode
	}
	n, epoch, err := znode.Unmarshal(it.Get("n").Byt())
	if err != nil {
		return nil, nil, err
	}
	if it.Get("spill").Num() == 1 {
		data, err := s.bucket.Get(ctx, path)
		if err != nil {
			return nil, nil, fmt.Errorf("core: hybrid spill read: %w", err)
		}
		// Bucket.Get returns a read-only view of bucket storage; the node
		// hands Data to the application (GetDataW), so copy here.
		n.Data = append([]byte(nil), data...)
	}
	n.Stat.DataLength = int32(len(n.Data))
	return n, epoch, nil
}

func (s *hybridStore) Delete(ctx cloud.Ctx, path string) error {
	if err := s.tbl.Delete(ctx, path, nil); err != nil {
		return err
	}
	if _, had := s.bucket.Peek(path); had {
		s.bucket.Delete(ctx, path)
	}
	return nil
}

func (s *hybridStore) Seed(n *znode.Node) {
	if len(n.Data) <= s.thresholdB {
		s.tbl.SeedPut(n.Path, kv.Item{{Name: "n", V: kv.B(znode.Marshal(n, nil))}})
		return
	}
	meta := n.Clone()
	meta.Data = nil
	s.tbl.SeedPut(n.Path, kv.Item{{Name: "n", V: kv.B(znode.Marshal(meta, nil))}, {Name: "spill", V: kv.N(1)}})
	s.bucket.SeedPut(n.Path, n.Data)
}

// memStore models a Redis instance on a provisioned VM: microsecond-scale
// operations, no per-operation billing (the VM bills by the hour instead).
type memStore struct {
	env    *cloud.Env
	region cloud.Region
	data   object.Blobs
}

// NewMemStore builds the in-memory cache user store.
func NewMemStore(env *cloud.Env, region cloud.Region) UserStore {
	return &memStore{env: env, region: region, data: object.Blobs{}}
}

func (s *memStore) Kind() StoreKind      { return StoreMem }
func (s *memStore) Region() cloud.Region { return s.region }

func (s *memStore) StoredBytes() int { return s.data.Size() }

func (s *memStore) lat(ctx cloud.Ctx, base sim.Dist, perKB sim.Time, size int) sim.Time {
	return s.env.OpTime(ctx, base, perKB, size)
}

func (s *memStore) Write(ctx cloud.Ctx, o Object) error {
	p := s.env.Profile
	s.env.K.Sleep(s.lat(ctx, p.MemWriteBase, p.MemWritePerKB, len(o.Blob)))
	s.data.Put(o.Path, o.Blob)
	return nil
}

func (s *memStore) Read(ctx cloud.Ctx, path string) (*znode.Node, []int64, error) {
	p := s.env.Profile
	// Request travel and server processing come first; the single lookup
	// then observes whatever the store holds when the operation executes
	// server-side, and the transfer term is charged for exactly the blob
	// returned — the value and the size-driven latency can never diverge.
	s.env.K.Sleep(s.lat(ctx, p.MemReadBase, 0, 0))
	blob, ok := s.data.Get(path)
	if !ok {
		return nil, nil, ErrUserNoNode
	}
	s.env.K.Sleep(s.lat(ctx, sim.Const(0), p.MemReadPerKB, len(blob)))
	return znode.Unmarshal(blob)
}

func (s *memStore) Delete(ctx cloud.Ctx, path string) error {
	p := s.env.Profile
	s.env.K.Sleep(s.lat(ctx, p.MemWriteBase, p.MemWritePerKB, 0))
	delete(s.data, path)
	return nil
}

func (s *memStore) Seed(n *znode.Node) { s.data.Put(n.Path, znode.Marshal(n, nil)) }

// ApplyBatch applies every write in one in-memory step after a single
// write round trip: the Redis analogue of a MULTI/EXEC pipeline.
func (s *memStore) ApplyBatch(ctx cloud.Ctx, objs []Object) error {
	size := 0
	for _, o := range objs {
		size += len(o.Blob)
	}
	p := s.env.Profile
	s.env.K.Sleep(s.lat(ctx, p.MemWriteBase, p.MemWritePerKB, size))
	for _, o := range objs {
		if o.Node == nil {
			delete(s.data, o.Path)
		} else {
			s.data.Put(o.Path, o.Blob)
		}
	}
	return nil
}
