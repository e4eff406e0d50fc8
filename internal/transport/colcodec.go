package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/device"
)

// This file implements the compact binary column codec ("colv1") that
// replaces gob for the two federation hot-path payloads: forwarded event
// batches and partial-aggregate syncs. A batch of N readings that gob ships
// as N independently-tagged structs travels instead as a version byte, the
// batch's one source and column-major arrays — dictionary-coded device IDs,
// delta-encoded zigzag-varint timestamps, and ONE value column specialized
// to the batch's common dynamic type. The payload rides in the gob
// envelope's Bin field of the "event_batch"/"agg_sync" request, so the
// persistent gob stream framing is untouched. The payload picks the
// encoding, not the connection: every node of a fleet is built from one tree
// and decodes both forms.
//
// Strings are coded against one dictionary per connection, so a device ID
// crosses a connection once, not once per batch. The dictionary is protocol
// state: both ends advance it in wire order (see Client.send), and a
// reconnect starts both ends' dictionaries empty.
//
// The codec is deliberately partial: a batch with any indexed reading, rows
// that disagree on source, a mixed-type burst, or an exotic value type
// travels as the request's gob slice instead, for that whole call (counted by CodecFallbacks). Times
// cross the wire as unix nanoseconds, preserving the instant but not the
// wall-clock location — the same contract as any epoch-based wire format.

// Value-column type tags. Tag 0 means "no value" (nil) and only appears in
// agg_sync payloads.
const (
	colvNil byte = iota
	colvBool
	colvInt64
	colvFloat64
	colvString
	colvInt
)

// colVersion is the payload's version byte. Version 1 coded strings against
// a per-payload table and version 2 coded an event batch's source once per
// row; payloads of either are refused, not misread.
const colVersion = 3

// colEnc is one connection's encoder: an append buffer plus the strings the
// connection has introduced so far (the zero value is ready to use). A
// Client owns one and uses it only under its write lock, immediately before
// the encoded payload's frame is written.
type colEnc struct {
	buf    []byte
	tokens map[string]uint64
}

// str appends one dictionary-coded string: uvarint token 0 introduces a
// literal (length + bytes follow); token k>0 references the k-th string this
// connection introduced. A literal joins the dictionary only while it is
// short and the dictionary has room (internMaxLen, internMaxEntries) — the
// rule colDec.str applies, so both ends assign the same tokens without
// negotiating.
func (e *colEnc) str(s string) {
	if tok, ok := e.tokens[s]; ok {
		e.buf = binary.AppendUvarint(e.buf, tok)
		return
	}
	if len(s) <= internMaxLen && len(e.tokens) < internMaxEntries {
		if e.tokens == nil {
			e.tokens = make(map[string]uint64)
		}
		e.tokens[s] = uint64(len(e.tokens) + 1)
	}
	e.buf = binary.AppendUvarint(e.buf, 0)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// valueTag classifies one dynamic value for the column codec; ok is false
// for types the codec does not carry.
func valueTag(v any) (tag byte, ok bool) {
	switch v.(type) {
	case nil:
		return colvNil, true
	case bool:
		return colvBool, true
	case int64:
		return colvInt64, true
	case float64:
		return colvFloat64, true
	case string:
		return colvString, true
	case int:
		return colvInt, true
	default:
		return 0, false
	}
}

// appendValue appends one tagged value's payload bytes (the tag itself is
// written by the caller, column-wide or per-entry).
func (e *colEnc) appendValue(tag byte, v any) {
	switch tag {
	case colvBool:
		b := byte(0)
		if v.(bool) {
			b = 1
		}
		e.buf = append(e.buf, b)
	case colvInt64:
		e.buf = binary.AppendVarint(e.buf, v.(int64))
	case colvInt:
		e.buf = binary.AppendVarint(e.buf, int64(v.(int)))
	case colvFloat64:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.(float64)))
	case colvString:
		e.str(v.(string))
	}
}

// encodeReadings encodes one event batch into the colv1 payload, or reports
// ok=false when the batch cannot travel in column form (an indexed reading,
// rows of different sources, a nil/mixed-type/exotic value) and must fall
// back to the gob op; a refusal leaves the dictionary untouched. readings
// must not be empty. bin is valid until the next encode.
func (e *colEnc) encodeReadings(readings []device.Reading) (bin []byte, ok bool) {
	var tag byte
	source := readings[0].Source
	for i := range readings {
		r := &readings[i]
		if r.Index != nil || r.Source != source {
			return nil, false
		}
		t, ok := valueTag(r.Value)
		if !ok || t == colvNil {
			return nil, false
		}
		if i == 0 {
			tag = t
		} else if t != tag {
			return nil, false
		}
	}
	e.buf = append(e.buf[:0], colVersion)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(readings)))
	// An event batch is one (kind, source): the source travels once.
	e.str(source)
	for i := range readings {
		e.str(readings[i].DeviceID)
	}
	// Times: first row's unix nanos, then deltas — a steady burst's
	// timestamps collapse to a couple of bytes each.
	prev := int64(0)
	for i := range readings {
		ns := readings[i].Time.UnixNano()
		e.buf = binary.AppendVarint(e.buf, ns-prev)
		prev = ns
	}
	e.buf = append(e.buf, tag)
	for i := range readings {
		e.appendValue(tag, readings[i].Value)
	}
	return e.buf, true
}

// encodeAggSync encodes one partial-aggregate sync into the colv1 payload,
// or reports ok=false when any group's partial value is of a type the codec
// does not carry (e.g. a combiner's composite struct) and the call must fall
// back to the gob op. The rest of its contract is encodeReadings'.
func (e *colEnc) encodeAggSync(groups []GroupPartial) (bin []byte, ok bool) {
	for i := range groups {
		if _, ok := valueTag(groups[i].Value); !ok {
			return nil, false
		}
	}
	e.buf = append(e.buf[:0], colVersion)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(groups)))
	for i := range groups {
		g := &groups[i]
		e.str(g.Group)
		flags := byte(0)
		if g.Removed {
			flags = 1
		}
		tag, _ := valueTag(g.Value)
		e.buf = append(e.buf, flags, tag)
		e.appendValue(tag, g.Value)
	}
	return e.buf, true
}

// colDec is the bounds-checked reader over colv1 payloads, plus the string
// dictionary one server connection keeps from payload to payload (the zero
// value is ready to use; a connection's serve loop is its only user, and it
// decodes every colv1 payload in arrival order). Every decode error wraps
// ErrBadFrame: the server treats it like a malformed frame and ends the
// connection, never itself.
type colDec struct {
	data []byte
	pos  int
	// tab is the connection's dictionary: token k names tab[k-1], the k-th
	// string the connection introduced. A reference is a slice index and
	// allocates nothing, so a steady stream of batches over known devices
	// decodes without allocating.
	tab []string
}

// Bounds of one connection's string dictionary, applied identically by
// colEnc.str and colDec.str. The bytes come from outside the process, so a
// hostile peer can pin at most internMaxEntries*internMaxLen bytes of string
// data (4 MiB) plus the 1 MiB slice indexing it per connection; past the
// bounds strings still decode, as literals that allocate once each.
const (
	// internMaxEntries caps the dictionary; a 50k-device edge and its
	// source names fit with room to spare.
	internMaxEntries = 1 << 16
	// internMaxLen is the longest string worth a token: identifiers are
	// short, and a long string value is not worth pinning for the
	// connection's life.
	internMaxLen = 64
)

func errBad(format string, args ...any) error {
	return fmt.Errorf("%w: colv1: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

func (d *colDec) byteVal() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, errBad("truncated at byte %d", d.pos)
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *colDec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, errBad("bad uvarint at byte %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *colDec) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, errBad("bad varint at byte %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *colDec) float() (float64, error) {
	if d.pos+8 > len(d.data) {
		return 0, errBad("truncated float at byte %d", d.pos)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v, nil
}

// str decodes one dictionary-coded string (see colEnc.str for the token
// scheme and the rule by which a literal joins the dictionary).
func (d *colDec) str() (string, error) {
	tok, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if tok > 0 {
		if tok > uint64(len(d.tab)) {
			return "", errBad("string token %d out of dictionary (%d entries)", tok, len(d.tab))
		}
		return d.tab[tok-1], nil
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.pos) {
		return "", errBad("string length %d exceeds remaining %d bytes", n, len(d.data)-d.pos)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	if len(s) <= internMaxLen && len(d.tab) < internMaxEntries {
		d.tab = append(d.tab, s)
	}
	return s, nil
}

// header validates the version byte and the element count against the bytes
// actually present (each element costs at least minBytes), so a hostile
// count can never drive a giant allocation.
func (d *colDec) header(minBytes int) (int, error) {
	ver, err := d.byteVal()
	if err != nil {
		return 0, err
	}
	if ver != colVersion {
		return 0, errBad("unknown version %d", ver)
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64((len(d.data)-d.pos)/minBytes) {
		return 0, errBad("count %d exceeds payload", n)
	}
	return int(n), nil
}

// decodeValue decodes one tagged value's payload.
func (d *colDec) decodeValue(tag byte) (any, error) {
	switch tag {
	case colvNil:
		return nil, nil
	case colvBool:
		b, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		switch b {
		case 0:
			return false, nil
		case 1:
			return true, nil
		}
		return nil, errBad("bool byte %d", b)
	case colvInt64:
		return d.varint()
	case colvInt:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return int(v), nil
	case colvFloat64:
		return d.float()
	case colvString:
		return d.str()
	default:
		return nil, errBad("unknown value tag %d", tag)
	}
}

// decodeReadings decodes one "event_batch" Bin payload back into readings.
// Any structural violation returns an error wrapping ErrBadFrame. scratch,
// when capacious enough, is recycled as the backing array — the serve loop
// passes its per-connection buffer, legal because FederationHandler
// implementations must not retain the slice past the call. A batch whose
// strings the connection already introduced decodes into a fitting scratch
// without allocating, for codec-scalar values.
func (d *colDec) decodeReadings(bin []byte, scratch []device.Reading) ([]device.Reading, error) {
	d.data, d.pos = bin, 0
	// Each row needs at least one byte per column: id, time, value.
	n, err := d.header(3)
	if err != nil {
		return nil, err
	}
	source, err := d.str()
	if err != nil {
		return nil, err
	}
	var readings []device.Reading
	if cap(scratch) >= n {
		readings = scratch[:n]
		for i := range readings {
			readings[i] = device.Reading{}
		}
	} else {
		readings = make([]device.Reading, n)
	}
	for i := range readings {
		readings[i].Source = source
		if readings[i].DeviceID, err = d.str(); err != nil {
			return nil, err
		}
	}
	prev := int64(0)
	for i := range readings {
		delta, err := d.varint()
		if err != nil {
			return nil, err
		}
		prev += delta
		readings[i].Time = time.Unix(0, prev)
	}
	tag, err := d.byteVal()
	if err != nil {
		return nil, err
	}
	if tag == colvNil {
		return nil, errBad("event batch with nil value column")
	}
	for i := range readings {
		if readings[i].Value, err = d.decodeValue(tag); err != nil {
			return nil, err
		}
	}
	if d.pos != len(d.data) {
		return nil, errBad("%d trailing bytes", len(d.data)-d.pos)
	}
	d.data = nil // do not pin the payload past its decode
	return readings, nil
}

// decodeAggSync decodes one "agg_sync" Bin payload back into group
// partials. Any structural violation returns an error wrapping ErrBadFrame.
// scratch is recycled as the backing array under the same no-retention
// contract as decodeReadings.
func (d *colDec) decodeAggSync(bin []byte, scratch []GroupPartial) ([]GroupPartial, error) {
	d.data, d.pos = bin, 0
	// Each group needs at least a group token, a flags byte and a tag byte.
	n, err := d.header(3)
	if err != nil {
		return nil, err
	}
	var groups []GroupPartial
	if cap(scratch) >= n {
		groups = scratch[:n]
		for i := range groups {
			groups[i] = GroupPartial{}
		}
	} else {
		groups = make([]GroupPartial, n)
	}
	for i := range groups {
		g := &groups[i]
		if g.Group, err = d.str(); err != nil {
			return nil, err
		}
		flags, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		if flags > 1 {
			return nil, errBad("unknown flags %d", flags)
		}
		g.Removed = flags == 1
		tag, err := d.byteVal()
		if err != nil {
			return nil, err
		}
		if g.Value, err = d.decodeValue(tag); err != nil {
			return nil, err
		}
	}
	if d.pos != len(d.data) {
		return nil, errBad("%d trailing bytes", len(d.data)-d.pos)
	}
	d.data = nil
	return groups, nil
}
