// Package persist is the durability subsystem: a CRC-framed, segment-rotated
// write-ahead log plus periodic atomic snapshots, giving a node crash-at-any-
// point recovery of its registry contents, generation counters, federation
// sync cursors and incremental-aggregation state.
//
// The registry's generation counters double as the log's sequence numbers:
// every journaled mutation carries the per-shard counters it commits, the
// journal append happens before the counters become observable, and Barrier
// (flush+fsync) runs before generations are advertised to federation peers —
// so a restarted node re-advertises exactly the generations its peers have
// cached and delta-syncs only the gap, never the fleet.
package persist

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
)

// errCorrupt marks a record or snapshot that fails structural validation;
// recovery treats it as the end of the consistent prefix.
var errCorrupt = errors.New("persist: corrupt data")

// enc builds a record or snapshot body with varint framing. All fields are
// length-delimited or varint-encoded, so decoding is bounds-checked by
// construction and fuzzable.
type enc struct {
	b []byte
}

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}

func (e *enc) strs(v []string) {
	e.u64(uint64(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

// strMap encodes a string map in sorted key order, so identical state
// serializes identically.
func (e *enc) strMap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(m[k])
	}
}

// u64Map encodes a counter map in sorted key order.
func (e *enc) u64Map(m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.u64(m[k])
	}
}

// dec reads an enc-built buffer with a sticky error: after the first
// malformed field every further read returns zero values, and the caller
// checks err once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a collection length, rejecting values the remaining buffer
// cannot possibly hold (each element takes at least one byte).
func (d *dec) count() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) || n > math.MaxInt32 {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) bytes() []byte {
	n := d.count()
	if d.err != nil {
		return nil
	}
	p := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return p
}

func (d *dec) strs() []string {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.str())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *dec) strMap() map[string]string {
	n := d.count()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.str()
		out[k] = d.str()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *dec) u64Map() map[string]uint64 {
	n := d.count()
	if d.err != nil {
		return nil
	}
	out := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := d.str()
		out[k] = d.u64()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// done reports whether the buffer was consumed exactly.
func (d *dec) done() bool { return d.err == nil && len(d.b) == 0 }
