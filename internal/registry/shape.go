package registry

import (
	"encoding/binary"
	"slices"
)

// A shape is everything a registration holds except its ID and endpoint:
// Kind, Kinds, Attrs, Origin and Bound. Fleets have few distinct
// shapes — a 50k-sensor swarm over 100 lots has 100 — so each shard keeps
// one per distinct content and every record points at its shape instead of
// owning copies. The shard's kind and attribute indexes post shapes, not
// entities, so a bind that finds its shape stores nothing but its record and
// one slot in the shape's members.
//
// A shape's content is immutable once built. Its kinds slice and attrs map
// are shared read-only by every record that carries it and by Scan and
// ScanIfChanged callbacks and CaptureState, all of which may retain them;
// Get, Discover and watch changes hand out deep copies. members lists the
// records pointing at the shape, each record holding its slot in it:
// indexLocked adds a record and posts the shape when it is the first, and
// unindexLocked removes it, withdrawing the shape from its postings and the
// shard's table when it was the last. The record keeps its pointer, so a
// removal never rebuilds the key.
type shape struct {
	// key is the canonical encoding of the shape and its table key. The
	// kind, origin, kinds, attribute names and values, and every byAttr
	// posting key ("name\x00value"), are substrings of it, so the strings of
	// a shape cost one allocation whatever it holds. The kinds slice itself
	// is shared with the shape built before it when equal
	// (regShard.lastKinds).
	key     string
	kind    string
	kinds   []string
	attrs   Attributes
	origin  string
	members []*record
	attrsAt int32 // offset in key of the first encoded attribute
	bound   BindingTime
}

// shapeSet is one posting: the shapes of a shard that carry a kind or an
// attribute value.
type shapeSet map[*shape]struct{}

// appendShapeKey appends the canonical encoding of e's shape to buf. Every
// string is length-prefixed: a byte telling a nil attribute map from an empty
// one, Bound, Origin, Kind as one plus its index in Kinds (or zero and the
// string when Kinds lacks it), the kind count, each of Kinds in order, then
// each attribute sorted by name as its name and value lengths followed by
// "name\x00value". names is scratch space for the sort, returned for reuse.
func appendShapeKey(buf []byte, names []string, e *Entity) ([]byte, []string) {
	if e.Attrs == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
	}
	buf = binary.AppendUvarint(buf, uint64(e.Bound))
	buf = appendString(buf, e.Origin)
	if i := slices.Index(e.Kinds, e.Kind); i >= 0 {
		buf = binary.AppendUvarint(buf, uint64(i+1))
	} else {
		buf = append(buf, 0)
		buf = appendString(buf, e.Kind)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Kinds)))
	for _, k := range e.Kinds {
		buf = appendString(buf, k)
	}
	names = names[:0]
	for k := range e.Attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		v := e.Attrs[k]
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, k...)
		buf = append(buf, 0)
		buf = append(buf, v...)
	}
	clear(names)
	return buf, names[:0]
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readLen decodes the uvarint at key[p:] and returns it with the offset just
// past it.
func readLen(key string, p int) (n, next int) {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := key[p]
		p++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(x), p
		}
	}
}

// readString decodes the length-prefixed string at key[p:].
func readString(key string, p int) (s string, next int) {
	l, p := readLen(key, p)
	return key[p : p+l], p + l
}

// attr decodes the attribute encoded at key[p:] (p starts at attrsAt): its
// name, its value, its byAttr posting key and the offset of the next one.
func (s *shape) attr(p int) (name, value, posting string, next int) {
	nl, p := readLen(s.key, p)
	vl, p := readLen(s.key, p)
	posting = s.key[p : p+nl+1+vl]
	return posting[:nl], posting[nl+1:], posting, p + nl + 1 + vl
}

// internLocked returns the shard's shape for e's content, building it on a
// miss — the only time the content is copied. Callers hold sh.mu.
func (sh *regShard) internLocked(e *Entity) *shape {
	sh.keyBuf, sh.names = appendShapeKey(sh.keyBuf[:0], sh.names, e)
	s := sh.shapes[string(sh.keyBuf)]
	if s == nil {
		s = sh.newShapeLocked(string(sh.keyBuf))
		sh.shapes[s.key] = s
	}
	return s
}

// newShapeLocked builds the shape whose canonical encoding is key, slicing
// its strings out of key.
func (sh *regShard) newShapeLocked(key string) *shape {
	s := &shape{key: key}
	bound, p := readLen(key, 1)
	s.bound = BindingTime(bound)
	s.origin, p = readString(key, p)
	kindAt, p := readLen(key, p)
	if kindAt == 0 {
		s.kind, p = readString(key, p)
	}
	n, p := readLen(key, p)
	s.kinds = make([]string, n)
	for i := range s.kinds {
		s.kinds[i], p = readString(key, p)
	}
	if slices.Equal(s.kinds, sh.lastKinds) {
		s.kinds = sh.lastKinds
	} else {
		sh.lastKinds = s.kinds
	}
	if kindAt > 0 {
		s.kind = s.kinds[kindAt-1]
	}
	s.attrsAt = int32(p)
	if key[0] == 0 {
		return s
	}
	s.attrs = make(Attributes)
	for p < len(key) {
		var name, value string
		name, value, _, p = s.attr(p)
		s.attrs[name] = value
	}
	return s
}

// add appends rec to s's members and reports whether it is the first.
func (s *shape) add(rec *record) (first bool) {
	rec.slot = len(s.members)
	s.members = append(s.members, rec)
	return rec.slot == 0
}

// remove swap-removes rec from s's members and reports whether it was the
// last. Members that fall below a quarter of their capacity move to a slice
// of twice their count, so a lot that empties does not pin its peak.
func (s *shape) remove(rec *record) (last bool) {
	n := len(s.members) - 1
	moved := s.members[n]
	moved.slot = rec.slot
	s.members[rec.slot] = moved
	s.members[n] = nil
	s.members = s.members[:n]
	if n < cap(s.members)/4 {
		s.members = append(make([]*record, 0, 2*n), s.members...)
	}
	return n == 0
}
