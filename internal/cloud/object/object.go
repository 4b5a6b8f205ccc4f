// Package object implements the simulated object store (S3 / Cloud
// Storage) used as FaaSKeeper's user data store: whole-object reads and
// writes with strong consistency, size-linear latency, cross-region
// penalties, and per-operation billing. Partial updates are deliberately
// not offered — their absence forces the leader's read-modify-write cycle
// the paper discusses (Requirement #6).
package object

import (
	"bytes"
	"errors"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// ErrNoSuchKey is returned when reading a missing object.
var ErrNoSuchKey = errors.New("object: no such key")

// Bucket is one simulated bucket, pinned to a region. Access from other
// regions pays the cross-region penalty of Figure 4b.
type Bucket struct {
	env     *cloud.Env
	name    string
	region  cloud.Region
	objects Blobs
}

// Blobs maps keys to byte blobs, each held behind a pointer so that an
// overwrite never assigns the map again: a map assignment stores its key,
// and the keys callers pass are often paths that view a decoded queue
// message, which the map would then keep alive. Put stores a new key as a
// clone instead.
type Blobs map[string]*[]byte

// Put stores b under key (b itself, not a copy).
func (m Blobs) Put(key string, b []byte) {
	if p, ok := m[key]; ok {
		*p = b
		return
	}
	v := b
	m[strings.Clone(key)] = &v
}

// Get returns the blob under key.
func (m Blobs) Get(key string) ([]byte, bool) {
	if p, ok := m[key]; ok {
		return *p, true
	}
	return nil, false
}

// Size returns the summed length of the blobs.
func (m Blobs) Size() int {
	n := 0
	for _, p := range m {
		n += len(*p)
	}
	return n
}

// NewBucket creates an empty bucket in the given region.
func NewBucket(env *cloud.Env, name string, region cloud.Region) *Bucket {
	return &Bucket{env: env, name: name, region: region, objects: Blobs{}}
}

// Name returns the bucket name.
func (b *Bucket) Name() string { return b.name }

// Region returns the bucket's region.
func (b *Bucket) Region() cloud.Region { return b.region }

func (b *Bucket) latency(ctx cloud.Ctx, base sim.Dist, perKB sim.Time, size int) sim.Time {
	p := b.env.Profile
	t := b.env.OpTime(ctx, base, perKB, size)
	if ctx.Region != b.region {
		t += b.env.OpTime(ctx, p.XRegionBase, p.XRegionPerKB, size)
	}
	return sim.Time(float64(t) * ctx.ObjFactor())
}

// Put stores a copy of data (a full-object overwrite; there is no offset
// write): the caller may reuse its buffer afterwards.
func (b *Bucket) Put(ctx cloud.Ctx, key string, data []byte) {
	b.PutOwned(ctx, key, bytes.Clone(data))
}

// PutOwned is Put without the copy: the bucket keeps data itself, so the
// caller hands the buffer over and must never write into it again. For a
// blob built to be stored (a marshaled node), which other readers — the
// regional cache — may share.
func (b *Bucket) PutOwned(ctx cloud.Ctx, key string, data []byte) {
	p := b.env.Profile
	b.env.K.Sleep(b.latency(ctx, p.ObjWriteBase, p.ObjWritePerKB, len(data)))
	b.env.Charge(ctx, "obj.write", p.Pricing.ObjectWriteCost(len(data)), 1)
	b.objects.Put(key, data)
}

// Get returns a read-only view of the object. Reads are strongly
// consistent: a successful write is immediately visible (Section 2.1).
// Every stored buffer is owned by the bucket (Put copies on the way in,
// PutOwned takes a buffer nobody writes) and overwrites are whole-object
// replacements (never in-place), so the returned slice is immutable for
// its lifetime and callers that mutate must copy first.
func (b *Bucket) Get(ctx cloud.Ctx, key string) ([]byte, error) {
	data, _ := b.objects.Get(key)
	p := b.env.Profile
	b.env.K.Sleep(b.latency(ctx, p.ObjReadBase, p.ObjReadPerKB, len(data)))
	b.env.Charge(ctx, "obj.read", p.Pricing.ObjectReadCost(len(data)), 1)
	data, ok := b.objects.Get(key) // racing writer may have landed while we slept
	if !ok {
		return nil, ErrNoSuchKey
	}
	return data, nil
}

// Delete removes the object; deleting a missing key is a no-op, as in S3.
func (b *Bucket) Delete(ctx cloud.Ctx, key string) {
	p := b.env.Profile
	b.env.K.Sleep(b.latency(ctx, p.ObjWriteBase, p.ObjWritePerKB, 0))
	b.env.Charge(ctx, "obj.write", p.Pricing.ObjectWriteCost(0), 1)
	delete(b.objects, key)
}

// Len returns the number of stored objects (test helper, no latency).
func (b *Bucket) Len() int { return len(b.objects) }

// TotalSize returns the stored bytes (for storage-cost accounting).
func (b *Bucket) TotalSize() int { return b.objects.Size() }

// SeedPut stores an object without latency or billing, for deployment
// bootstrap before measurement starts.
func (b *Bucket) SeedPut(key string, data []byte) {
	b.objects.Put(key, append([]byte(nil), data...))
}

// Peek returns the stored object without latency or billing.
func (b *Bucket) Peek(key string) ([]byte, bool) {
	d, ok := b.objects.Get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}
