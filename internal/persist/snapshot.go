package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/registry"
)

// Snapshot on-disk layout: an 8-byte magic, then one CRC-framed body
// (u32 length | u32 crc | body), written to a temp file, fsynced and
// renamed into place — a snapshot either exists completely or not at all,
// and a corrupted one is detected and skipped in favor of the previous one
// (recovery then replays a longer WAL suffix instead).
const (
	snapMagic  = "DSPSNP2\n"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

// snapName embeds both the snapshot sequence number and the first WAL
// segment its tail replay starts from, so segment pruning can respect every
// retained snapshot without reading any of them back.
func snapName(seq, firstSeg uint64) string {
	return fmt.Sprintf("%s%08d.%08d%s", snapPrefix, seq, firstSeg, snapSuffix)
}

func parseSnapName(name string) (seq, firstSeg uint64, ok bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, 0, false
	}
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), ".")
	if len(parts) != 2 {
		return 0, 0, false
	}
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	firstSeg, err = strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return seq, firstSeg, true
}

// snapInfo is one snapshot file found on disk.
type snapInfo struct {
	seq      uint64
	firstSeg uint64
}

// listSnapshots returns the snapshot files present in dir, ascending by
// sequence, ignoring (and deleting) leftover temp files.
func listSnapshots(dir string) ([]snapInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapInfo
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, firstSeg, ok := parseSnapName(name); ok {
			snaps = append(snaps, snapInfo{seq: seq, firstSeg: firstSeg})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return snaps, nil
}

// shardGens is one registry shard's captured generation counters.
type shardGens struct {
	idx    int
	genAll uint64
	kinds  map[string]uint64
}

// snapState is a snapshot's decoded body: the complete node state at capture
// plus the WAL position (firstSeg) the tail replay starts from.
type snapState struct {
	firstSeg  uint64
	boot      uint64
	baseAll   uint64
	baseKinds map[string]uint64
	shards    []shardGens
	entities  []registry.Entity
	peers     map[string]PeerState
	aggs      map[string][]byte
}

func encodeSnapshot(s *snapState) []byte {
	e := &enc{b: make([]byte, 0, 4096)}
	e.u8(1) // body version
	e.u64(s.firstSeg)
	e.u64(s.boot)
	e.u64(s.baseAll)
	e.u64Map(s.baseKinds)
	e.u64(uint64(len(s.shards)))
	for _, sg := range s.shards {
		e.u64(uint64(sg.idx))
		e.u64(sg.genAll)
		e.u64Map(sg.kinds)
	}
	e.u64(uint64(len(s.entities)))
	for i := range s.entities {
		encodeEntity(e, &s.entities[i])
	}
	names := make([]string, 0, len(s.peers))
	for name := range s.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	e.u64(uint64(len(names)))
	for _, name := range names {
		encodePeer(e, name, s.peers[name])
	}
	keys := make([]string, 0, len(s.aggs))
	for k := range s.aggs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.bytes(s.aggs[k])
	}
	return e.b
}

func decodeSnapshot(body []byte) (*snapState, error) {
	d := &dec{b: body}
	if d.u8() != 1 {
		return nil, errCorrupt
	}
	s := &snapState{}
	s.firstSeg = d.u64()
	s.boot = d.u64()
	s.baseAll = d.u64()
	s.baseKinds = d.u64Map()
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		s.shards = append(s.shards, shardGens{
			idx:    int(d.u64()),
			genAll: d.u64(),
			kinds:  d.u64Map(),
		})
	}
	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		s.entities = append(s.entities, decodeEntity(d))
	}
	n = d.count()
	s.peers = make(map[string]PeerState, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		s.peers[name] = PeerState{Boot: d.u64(), Gens: d.u64Map()}
	}
	n = d.count()
	s.aggs = make(map[string][]byte, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		s.aggs[k] = d.bytes()
	}
	if !d.done() {
		return nil, errCorrupt
	}
	return s, nil
}

// writeSnapshot atomically persists one snapshot: temp file, fsync, rename,
// directory fsync.
func writeSnapshot(dir string, seq uint64, s *snapState) error {
	body := encodeSnapshot(s)
	buf := make([]byte, 0, len(snapMagic)+frameHdr+len(body))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
	buf = append(buf, body...)

	final := filepath.Join(dir, snapName(seq, s.firstSeg))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// loadSnapshot reads and validates one snapshot file. Any structural damage
// — short file, bad magic, bad CRC, trailing garbage, undecodable body —
// returns an error so recovery falls back to the previous snapshot.
func loadSnapshot(path string) (*snapState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+frameHdr || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errCorrupt
	}
	rest := data[len(snapMagic):]
	n := binary.LittleEndian.Uint32(rest)
	crc := binary.LittleEndian.Uint32(rest[4:])
	body := rest[frameHdr:]
	if int(n) != len(body) || crc32.Checksum(body, crcTable) != crc {
		return nil, errCorrupt
	}
	return decodeSnapshot(body)
}
