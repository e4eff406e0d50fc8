package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Length-prefixed framing under the gob codec. Each logical message (one
// request or response) is encoded into a scratch buffer first and shipped as
// one frame: a uvarint byte count followed by that many payload bytes. The
// receiving side validates every frame length against MaxFrameBytes before
// a single payload byte reaches the decoder, so a corrupted or hostile
// stream fails with a bounded, typed error instead of a giant allocation —
// and a truncated frame surfaces as a clean connection error rather than a
// decoder hang. The gob encoder/decoder pair stays persistent across frames
// (type descriptors cross the wire once per connection).

// MaxFrameBytes bounds one wire frame. A full 50k-entity registry delta is
// ~8MB of gob; the bound leaves generous headroom while still refusing
// absurd lengths from malformed input.
const MaxFrameBytes = 64 << 20

// Framing errors. Both poison the connection: framing state past a bad
// length or short payload is unrecoverable, so the peer must reconnect.
var (
	ErrFrameTooBig = errors.New("transport: frame exceeds size bound")
	ErrBadFrame    = errors.New("transport: malformed frame")
)

// frameWriter encodes messages with a persistent gob encoder and writes each
// one as a single length-prefixed frame. Callers serialize access.
type frameWriter struct {
	w   *bufio.Writer
	buf bytes.Buffer
	enc *gob.Encoder
	len [binary.MaxVarintLen64]byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: bufio.NewWriter(w)}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// send encodes v and flushes it as one frame.
func (fw *frameWriter) send(v any) error {
	if err := fw.write(v); err != nil {
		return err
	}
	return fw.w.Flush()
}

// write encodes v as one frame into the write buffer without flushing it,
// so a writer with more frames queued can share one write between them.
func (fw *frameWriter) write(v any) error {
	fw.buf.Reset()
	if err := fw.enc.Encode(v); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	if fw.buf.Len() > MaxFrameBytes {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooBig, fw.buf.Len())
	}
	n := binary.PutUvarint(fw.len[:], uint64(fw.buf.Len()))
	if _, err := fw.w.Write(fw.len[:n]); err != nil {
		return err
	}
	_, err := fw.w.Write(fw.buf.Bytes())
	return err
}

// frameStream adapts a framed byte stream back into the contiguous stream
// the gob decoder reads, validating each frame header as it is crossed. It
// is the read-side half of the codec and the surface the fuzz harness
// drives: any malformed length errors out before payload bytes are served.
type frameStream struct {
	r    *bufio.Reader
	rest int // undelivered bytes of the current frame
	err  error
}

func newFrameStream(r io.Reader) *frameStream {
	return &frameStream{r: bufio.NewReader(r)}
}

// Read implements io.Reader over the concatenated frame payloads.
func (s *frameStream) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	for s.rest == 0 {
		n, err := binary.ReadUvarint(s.r)
		if err != nil {
			s.err = err
			return 0, err
		}
		if n == 0 {
			s.err = fmt.Errorf("%w: zero-length frame", ErrBadFrame)
			return 0, s.err
		}
		if n > MaxFrameBytes {
			s.err = fmt.Errorf("%w (%d bytes)", ErrFrameTooBig, n)
			return 0, s.err
		}
		s.rest = int(n)
	}
	if len(p) > s.rest {
		p = p[:s.rest]
	}
	n, err := s.r.Read(p)
	s.rest -= n
	if err != nil {
		if err == io.EOF && s.rest > 0 {
			err = fmt.Errorf("%w: stream truncated inside a frame", ErrBadFrame)
		}
		s.err = err
	}
	return n, err
}

// frameDecoder pairs a frameStream with a persistent gob decoder.
type frameDecoder struct {
	s   *frameStream
	dec *gob.Decoder
}

func newFrameDecoder(r io.Reader) *frameDecoder {
	s := newFrameStream(r)
	return &frameDecoder{s: s, dec: gob.NewDecoder(s)}
}

func (fd *frameDecoder) decode(v any) error {
	return fd.dec.Decode(v)
}
