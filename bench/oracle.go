package main

import (
	"encoding/binary"
	"fmt"

	"faaskeeper/internal/znode"
)

// oracle checks every client-visible result inside the load loop. Each
// written payload starts with a unique 8-byte stamp; a node's data version
// starts at 0 on create and grows by one per SetData, so stamps[node][v]
// is the payload the service acknowledged as version v.
//
// The simulator runs one process at a time, so the oracle needs no locks.
type oracle struct {
	stamps [][]uint64 // [node][version] acknowledged stamp; 0 = not acked yet
	// seen holds stamps read at a version whose ack had not arrived yet
	// (another session's write, committed but still on its way back).
	seen []map[int32]uint64

	lastAck [][]int32 // [session][node] newest version this session was acked
	lastMz  [][]int64 // [session][node] newest mzxid this session read (Z3)

	attempted int64
	failed    int64
	msgs      []string // first few failures, for the report
}

func newOracle(sessions, nodes int) *oracle {
	o := &oracle{
		stamps:  make([][]uint64, nodes),
		seen:    make([]map[int32]uint64, nodes),
		lastAck: make([][]int32, sessions),
		lastMz:  make([][]int64, sessions),
	}
	for s := range o.lastAck {
		o.lastAck[s] = make([]int32, nodes)
		o.lastMz[s] = make([]int64, nodes)
		for n := range o.lastAck[s] {
			o.lastAck[s][n] = -1
		}
	}
	return o
}

func (o *oracle) fail(format string, args ...any) {
	o.failed++
	if len(o.msgs) < 8 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
	}
}

func stampOf(data []byte) uint64 {
	if len(data) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(data)
}

// created records a preloaded node's version-0 payload.
func (o *oracle) created(node int, stamp uint64, err error) {
	o.attempted++
	if err != nil {
		o.fail("create node %d: %v", node, err)
		return
	}
	o.stamps[node] = append(o.stamps[node][:0], stamp)
}

// acked checks one write acknowledgement: the version is new for the path,
// above every version this session was acked before, and any read that
// already observed the version saw this payload.
func (o *oracle) acked(sess, node int, stamp uint64, stat znode.Stat, err error) {
	o.attempted++
	if err != nil {
		o.fail("session %d set node %d: %v", sess, node, err)
		return
	}
	v := stat.Version
	if v <= o.lastAck[sess][node] {
		o.fail("session %d node %d: ack version %d after %d", sess, node, v, o.lastAck[sess][node])
		return
	}
	o.lastAck[sess][node] = v
	for int(v) >= len(o.stamps[node]) {
		o.stamps[node] = append(o.stamps[node], 0)
	}
	if o.stamps[node][v] != 0 {
		o.fail("node %d: version %d acknowledged twice", node, v)
		return
	}
	o.stamps[node][v] = stamp
	if got, ok := o.seen[node][v]; ok {
		delete(o.seen[node], v)
		if got != stamp {
			o.fail("node %d version %d: read stamp %x, acked stamp %x", node, v, got, stamp)
		}
	}
}

// read checks one GetData result: read-your-writes and per-path mzxid
// monotonicity for the session (Z3), and payload integrity for the
// version returned.
func (o *oracle) read(sess, node int, data []byte, stat znode.Stat, err error) {
	o.attempted++
	if err != nil {
		o.fail("session %d get node %d: %v", sess, node, err)
		return
	}
	if stat.Version < o.lastAck[sess][node] {
		o.fail("session %d node %d: read version %d below own acked write %d",
			sess, node, stat.Version, o.lastAck[sess][node])
		return
	}
	if stat.Mzxid < o.lastMz[sess][node] {
		o.fail("session %d node %d: mzxid %d regressed from %d", sess, node, stat.Mzxid, o.lastMz[sess][node])
		return
	}
	o.lastMz[sess][node] = stat.Mzxid
	got := stampOf(data)
	v := stat.Version
	if int(v) < len(o.stamps[node]) && o.stamps[node][v] != 0 {
		if got != o.stamps[node][v] {
			o.fail("node %d version %d: read stamp %x, acked stamp %x", node, v, got, o.stamps[node][v])
		}
		return
	}
	if o.seen[node] == nil {
		o.seen[node] = map[int32]uint64{}
	}
	if prev, ok := o.seen[node][v]; ok && prev != got {
		o.fail("node %d version %d: two reads disagree (%x, %x)", node, v, prev, got)
	}
	o.seen[node][v] = got
}

// final checks the tree after the load has drained: each node holds the
// last acknowledged payload, every version up to it was acknowledged
// exactly once, and no read observed a version nobody was acked for.
func (o *oracle) final(node int, data []byte, stat znode.Stat, err error) {
	o.attempted++
	if err != nil {
		o.fail("read back node %d: %v", node, err)
		return
	}
	st := o.stamps[node]
	last := int32(len(st) - 1)
	for v, s := range st {
		if s == 0 {
			o.fail("node %d: version %d never acknowledged below %d", node, v, last)
			return
		}
	}
	if stat.Version != last || stampOf(data) != st[last] {
		o.fail("node %d: read back version %d stamp %x, last ack version %d stamp %x",
			node, stat.Version, stampOf(data), last, st[last])
		return
	}
	if len(o.seen[node]) != 0 {
		o.fail("node %d: %d read versions never acknowledged", node, len(o.seen[node]))
	}
}
