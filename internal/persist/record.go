package persist

import "repro/internal/registry"

// WAL record types. A record's framing (length + CRC) lives in wal.go; this
// file is the payload schema.
const (
	// recMutation is one registry mutation: the change type, the mutating
	// shard's post-mutation generation counters (the record's sequence
	// numbers) and the entity.
	recMutation byte = 1
	// recPeer is one federation peer's sync cursor: the per-kind generations
	// this node has mirrored from it and the peer's boot epoch.
	recPeer byte = 2
	// recMarker opens every incarnation of the log: the generation sums the
	// incarnation recovered (its base) and the boot epoch, if known. Replay
	// resets its per-shard counter tracking here, because shard-local
	// counters are not comparable across incarnations (the ID→shard hash is
	// reseeded per process).
	recMarker byte = 3
	// recBoot persists the node's transport boot epoch once the federation
	// server assigns it, so peers recognize the restarted node as the same
	// incarnation instead of rebuilding its mirrors from scratch.
	recBoot byte = 4
)

// mutation is the decoded form of a recMutation payload.
type mutation struct {
	typ      registry.ChangeType
	shard    int
	genAll   uint64
	kindGens []registry.KindGen
	entity   registry.Entity
}

func encodeEntity(e *enc, ent *registry.Entity) {
	e.str(string(ent.ID))
	e.str(ent.Kind)
	e.strs(ent.Kinds)
	e.strMap(ent.Attrs)
	e.str(ent.Endpoint)
	e.str(ent.Origin)
	e.i64(int64(ent.Bound))
}

func decodeEntity(d *dec) registry.Entity {
	var ent registry.Entity
	ent.ID = registry.ID(d.str())
	ent.Kind = d.str()
	ent.Kinds = d.strs()
	ent.Attrs = registry.Attributes(d.strMap())
	ent.Endpoint = d.str()
	ent.Origin = d.str()
	ent.Bound = registry.BindingTime(d.i64())
	return ent
}

func encodeMutation(e *enc, m *registry.Mutation) {
	e.u8(byte(m.Type))
	e.u64(uint64(m.Shard))
	e.u64(m.GenAll)
	e.u64(uint64(len(m.KindGens)))
	for _, kg := range m.KindGens {
		e.str(kg.Kind)
		e.u64(kg.Gen)
	}
	encodeEntity(e, m.Entity)
}

func decodeMutation(payload []byte) (mutation, error) {
	d := &dec{b: payload}
	var m mutation
	m.typ = registry.ChangeType(d.u8())
	m.shard = int(d.u64())
	m.genAll = d.u64()
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.kindGens = append(m.kindGens, registry.KindGen{Kind: d.str(), Gen: d.u64()})
	}
	m.entity = decodeEntity(d)
	if !d.done() {
		return mutation{}, errCorrupt
	}
	switch m.typ {
	case registry.Added, registry.Updated, registry.Removed:
	default:
		return mutation{}, errCorrupt
	}
	return m, nil
}

// PeerState is one federation peer's persisted sync cursor.
type PeerState struct {
	// Boot is the peer's transport boot epoch at the last applied delta.
	Boot uint64
	// Gens maps each imported kind to the peer generation this node's
	// mirrors reflect.
	Gens map[string]uint64
}

func encodePeer(e *enc, name string, ps PeerState) {
	e.str(name)
	e.u64(ps.Boot)
	e.u64Map(ps.Gens)
}

func decodePeer(payload []byte) (name string, ps PeerState, err error) {
	d := &dec{b: payload}
	name = d.str()
	ps.Boot = d.u64()
	ps.Gens = d.u64Map()
	if !d.done() || name == "" {
		return "", PeerState{}, errCorrupt
	}
	return name, ps, nil
}

// marker is the decoded form of a recMarker payload.
type marker struct {
	baseAll   uint64
	baseKinds map[string]uint64
	boot      uint64
}

func encodeMarker(e *enc, m marker) {
	e.u64(m.baseAll)
	e.u64Map(m.baseKinds)
	e.u64(m.boot)
}

func decodeMarker(payload []byte) (marker, error) {
	d := &dec{b: payload}
	var m marker
	m.baseAll = d.u64()
	m.baseKinds = d.u64Map()
	m.boot = d.u64()
	if !d.done() {
		return marker{}, errCorrupt
	}
	return m, nil
}

func encodeBoot(e *enc, boot uint64) { e.u64(boot) }

func decodeBoot(payload []byte) (uint64, error) {
	d := &dec{b: payload}
	boot := d.u64()
	if !d.done() {
		return 0, errCorrupt
	}
	return boot, nil
}
