package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WAL on-disk layout. Each segment file starts with an 8-byte magic and
// holds a sequence of framed records:
//
//	u32 length | u32 crc | type byte | payload (length-1 bytes)
//
// length counts the type byte plus the payload; the CRC (Castagnoli) covers
// the same bytes. Replay stops at the first frame that is short, oversized
// or fails its CRC — a torn tail from a crash mid-append truncates the log
// to its last consistent prefix instead of poisoning it.
const (
	walMagic   = "DSPWAL2\n"
	segPrefix  = "wal-"
	segSuffix  = ".log"
	frameHdr   = 8       // u32 length + u32 crc
	maxRecord  = 1 << 24 // 16 MiB: anything larger is framing garbage
	defSegSize = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(seg uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seg, segSuffix)
}

// parseSegName extracts the segment index from a WAL file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, ent := range entries {
		if seg, ok := parseSegName(ent.Name()); ok {
			segs = append(segs, seg)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// walWriter appends framed records to the current segment through a buffered
// writer. It is not concurrency-safe; the Store serializes access.
type walWriter struct {
	dir        string
	seg        uint64
	f          *os.File
	bw         *bufio.Writer
	size       int64
	segBytes   int64
	syncEvery  bool
	frameBuf   []byte
	needsFsync bool // bytes flushed to the OS since the last fsync
}

// openSegment creates (or truncates) segment seg and writes its magic.
func (w *walWriter) openSegment(seg uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(seg)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.seg = seg
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		w.bw.Reset(f)
	}
	if _, err := w.bw.WriteString(walMagic); err != nil {
		return err
	}
	w.size = int64(len(walMagic))
	w.needsFsync = true
	return syncDir(w.dir)
}

// append frames one record into the buffer, rotating first when the current
// segment is full. Callers barrier() when durability is needed.
func (w *walWriter) append(typ byte, payload []byte) error {
	if w.size >= w.segBytes {
		if _, err := w.rotate(); err != nil {
			return err
		}
	}
	n := 1 + len(payload)
	if n > maxRecord {
		return fmt.Errorf("persist: record of %d bytes exceeds the %d byte limit", n, maxRecord)
	}
	w.frameBuf = w.frameBuf[:0]
	w.frameBuf = binary.LittleEndian.AppendUint32(w.frameBuf, uint32(n))
	crc := crc32.Update(0, crcTable, []byte{typ})
	crc = crc32.Update(crc, crcTable, payload)
	w.frameBuf = binary.LittleEndian.AppendUint32(w.frameBuf, crc)
	w.frameBuf = append(w.frameBuf, typ)
	if _, err := w.bw.Write(w.frameBuf); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += int64(frameHdr + n)
	w.needsFsync = true
	if w.syncEvery {
		return w.barrier()
	}
	return nil
}

// barrier flushes buffered records to the OS and fsyncs the segment, making
// every record appended so far durable.
func (w *walWriter) barrier() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if !w.needsFsync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.needsFsync = false
	return nil
}

// rotate seals the current segment (flush + fsync + close) and opens the
// next one, returning the new segment's index.
func (w *walWriter) rotate() (uint64, error) {
	if err := w.barrier(); err != nil {
		return 0, err
	}
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	if err := w.openSegment(w.seg + 1); err != nil {
		return 0, err
	}
	return w.seg, nil
}

// close seals the writer. With discard, buffered-but-unflushed records are
// dropped and nothing further touches the disk — the crash hook's
// SIGKILL-equivalent teardown.
func (w *walWriter) close(discard bool) error {
	if w.f == nil {
		return nil
	}
	if !discard {
		if err := w.barrier(); err != nil {
			w.f.Close()
			w.f = nil
			return err
		}
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// replaySegment streams the valid record prefix of one segment file to fn.
// clean reports whether the whole segment parsed: a missing/short magic, a
// truncated frame, an oversized length or a CRC mismatch all end the replay
// at the last consistent record. validLen is the byte offset of the end of
// that prefix (used by recovery to truncate a torn tail in place). fn errors
// abort the replay and are returned verbatim.
func replaySegment(path string, fn func(typ byte, payload []byte) error) (clean bool, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, 0, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return false, 0, nil
	}
	off := int64(len(walMagic))
	rest := data[off:]
	for {
		if len(rest) < frameHdr {
			return len(rest) == 0, off, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > maxRecord || int(n) > len(rest)-frameHdr {
			return false, off, nil
		}
		body := rest[frameHdr : frameHdr+int(n)]
		if crc32.Checksum(body, crcTable) != crc {
			return false, off, nil
		}
		if err := fn(body[0], body[1:]); err != nil {
			return false, off, err
		}
		off += int64(frameHdr + int(n))
		rest = rest[frameHdr+int(n):]
	}
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
