// Wire format of the TCP fabric. Every frame on a connection is
//
//	[length uint32][version byte][crc32 uint32][payload ...]
//
// with big-endian integers. length counts payload bytes only (the header
// is fixed at 9 bytes), version is wireVersion, and the checksum is
// IEEE CRC-32 over the payload. Every frame is self-contained: a
// truncated, reordered, or corrupted frame can never poison decoding of
// its successors, and the decoders are independently fuzzable.
//
// The payload is a fixed binary encoding built from a few primitives:
// unsigned and zigzag-signed varints (always minimally encoded), bools as
// one byte 0 or 1, strings as a varint length plus bytes, and nil-aware
// lengths for slices (0 = nil, n+1 = n elements). Decoders accept only the
// canonical form, so any accepted payload re-encodes to identical bytes.
//
// The first frame on a connection is the hello: From, To (strings) and
// Path (varint), identifying the dialing link. Every later frame carries
// one Message: From, To, Kind (strings), CarriesPage (bool), BatchItems
// (varint), then the Payload as encoded by the installed PayloadCodec.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// wireVersion is bumped on any incompatible framing or schema change;
	// both ends refuse mismatched frames instead of misparsing them.
	// Version 1 carried gob payloads; version 2 is the binary encoding.
	wireVersion = 2

	// wireHeaderSize is the fixed frame header: length + version + crc.
	wireHeaderSize = 4 + 1 + 4

	// maxFramePayload bounds a single frame. The largest legitimate frame
	// is a page ship plus piggybacked notices — well under a megabyte —
	// so 16 MiB rejects garbage lengths without constraining the protocol.
	maxFramePayload = 16 << 20
)

// Framing errors. All wrap ErrBadFrame so readers can treat any of them as
// "this connection is poisoned, drop it".
var (
	ErrBadFrame    = errors.New("transport: bad frame")
	ErrBadVersion  = fmt.Errorf("%w: wire version mismatch", ErrBadFrame)
	ErrFrameTooBig = fmt.Errorf("%w: length exceeds limit", ErrBadFrame)
	ErrBadChecksum = fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	ErrEmptyFrame  = fmt.Errorf("%w: zero-length payload", ErrBadFrame)
)

// PayloadCodec encodes and decodes Message.Payload values for the TCP
// fabric. The layer that defines the payload vocabulary implements it and
// installs it once with SetPayloadCodec; the simulated Network never uses
// it, since payloads travel in-process by reference.
type PayloadCodec interface {
	// AppendPayload appends the encoding of v to dst. It fails only for a
	// value outside the codec's vocabulary.
	AppendPayload(dst []byte, v any) ([]byte, error)
	// DecodePayload decodes one payload from d, reporting failure through
	// d. The frame buffer is reused, so the result must copy any bytes it
	// keeps (Decoder.Bytes and Decoder.Str do).
	DecodePayload(d *Decoder) any
}

var payloadCodec PayloadCodec

// SetPayloadCodec installs the codec for Message payloads. Call it once,
// from the init function of the package owning the payload types; a
// second installation panics.
func SetPayloadCodec(c PayloadCodec) {
	if payloadCodec != nil {
		panic("transport: payload codec installed twice")
	}
	payloadCodec = c
}

var errNoCodec = errors.New("transport: no payload codec installed")

// wireHello is the first frame on every connection: the dialer declares
// which ordered link and path index the connection carries.
type wireHello struct {
	From string
	To   string
	Path int
}

// beginFrame reserves a frame header at the end of dst; the payload is
// then appended and finishFrame fills the header in.
func beginFrame(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, make([]byte, wireHeaderSize)...), start
}

// finishFrame fills in the header of the frame starting at dst[start],
// whose payload is everything after the header.
func finishFrame(dst []byte, start int) []byte {
	payload := dst[start+wireHeaderSize:]
	hdr := dst[start : start+wireHeaderSize]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = wireVersion
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	return dst
}

// appendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice. It never fails: size enforcement happens at
// decode.
func appendFrame(dst, payload []byte) []byte {
	dst, start := beginFrame(dst)
	return finishFrame(append(dst, payload...), start)
}

// readFrame reads one length-prefixed frame from r and returns its
// verified payload, stored in buf when buf is large enough (a reader may
// pass the previous payload back to reuse it). Errors are either I/O
// errors from r or wrap ErrBadFrame; a reader must abandon the connection
// on any of them, since after a framing error the stream position is
// unknown.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [wireHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if hdr[4] != wireVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[4], wireVersion)
	}
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, maxFramePayload)
	}
	var payload []byte
	if cap(buf) >= int(n) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		// A short payload after a complete header is a truncated frame,
		// not a clean EOF.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
		}
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[5:9]); got != want {
		return nil, fmt.Errorf("%w: %08x != %08x", ErrBadChecksum, got, want)
	}
	return payload, nil
}

// appendMessage appends the binary encoding of msg to dst. On error dst is
// returned unextended.
func appendMessage(dst []byte, msg Message) ([]byte, error) {
	if payloadCodec == nil {
		return dst, errNoCodec
	}
	start := len(dst)
	dst = AppendStr(dst, msg.From)
	dst = AppendStr(dst, msg.To)
	dst = AppendStr(dst, msg.Kind)
	dst = AppendBool(dst, msg.CarriesPage)
	dst = AppendVarint(dst, int64(msg.BatchItems))
	dst, err := payloadCodec.AppendPayload(dst, msg.Payload)
	if err != nil {
		return dst[:start], fmt.Errorf("transport: encode %s %s->%s: %w", msg.Kind, msg.From, msg.To, err)
	}
	return dst, nil
}

// appendMessageFrame appends msg as one complete frame. On error dst is
// returned unextended.
func appendMessageFrame(dst []byte, msg Message) ([]byte, error) {
	dst, start := beginFrame(dst)
	dst, err := appendMessage(dst, msg)
	if err != nil {
		return dst[:start], err
	}
	return finishFrame(dst, start), nil
}

// decodeMessage decodes a payload produced by appendMessage, using d as
// scratch state. The Message shares no memory with payload.
func decodeMessage(d *Decoder, payload []byte) (Message, error) {
	if payloadCodec == nil {
		return Message{}, errNoCodec
	}
	d.Reset(payload)
	msg := Message{
		From:        d.Str(),
		To:          d.Str(),
		Kind:        d.Str(),
		CarriesPage: d.Bool(),
		BatchItems:  int(d.Varint()),
	}
	if d.Err() == nil {
		msg.Payload = payloadCodec.DecodePayload(d)
	}
	if err := d.Finish(); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// appendHello / decodeHello frame the connection-opening handshake.
func appendHello(dst []byte, h wireHello) []byte {
	dst = AppendStr(dst, h.From)
	dst = AppendStr(dst, h.To)
	return AppendVarint(dst, int64(h.Path))
}

func decodeHello(payload []byte) (wireHello, error) {
	var d Decoder
	d.Reset(payload)
	h := wireHello{From: d.Str(), To: d.Str(), Path: int(d.Varint())}
	if err := d.Finish(); err != nil {
		return wireHello{}, fmt.Errorf("hello: %w", err)
	}
	return h, nil
}

// writeFrame encodes payload into a frame and writes it whole to w.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, wireHeaderSize+len(payload)), payload))
	return err
}

// --- primitives -------------------------------------------------------

// AppendUvarint appends v as a minimal unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a minimal zigzag varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendStr appends s as a length-prefixed string.
func AppendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendLen appends a nil-aware slice length: 0 for a nil slice, n+1 for
// a slice of n elements. The elements follow.
func AppendLen(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// AppendBytes appends b with a nil-aware length.
func AppendBytes(dst, b []byte) []byte {
	return append(AppendLen(dst, len(b), b == nil), b...)
}

// Decoder reads the primitives written by the Append functions from one
// payload, set with Reset. The first failure sticks: every later read
// returns a zero value, and Err reports the failure, which always wraps
// ErrBadFrame.
type Decoder struct {
	buf []byte
	err error
}

// Reset points d at a new payload and clears any failure.
func (d *Decoder) Reset(buf []byte) { d.buf, d.err = buf, nil }

// Err reports the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a failure (the first one wins).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
		d.buf = nil
	}
}

// Finish reports the first failure, or an error if bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		d.Failf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) == 0 {
		d.Failf("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bool reads a bool; any byte other than 0 or 1 is a failure.
func (d *Decoder) Bool() bool {
	switch b := d.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("bool byte %d", b)
		return false
	}
}

// Uvarint reads a minimally encoded unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Failf("bad varint")
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		d.Failf("non-minimal varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// UvarintMax reads an unsigned varint no larger than max.
func (d *Decoder) UvarintMax(max uint64) uint64 {
	v := d.Uvarint()
	if v > max {
		d.Failf("value %d exceeds %d", v, max)
		return 0
	}
	return v
}

// Varint reads a minimally encoded zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a length-prefixed string (a copy).
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Failf("%d-byte string in %d bytes", n, len(d.buf))
	}
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Len reads a nil-aware slice length: -1 for a nil slice, else the
// element count. Every element takes at least minSize encoded bytes, so a
// count the remaining bytes cannot hold is a failure before the caller
// allocates anything for it.
func (d *Decoder) Len(minSize int) int {
	v := d.Uvarint()
	if d.err != nil || v == 0 {
		return -1
	}
	n := v - 1
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(d.buf)/minSize) {
		d.Failf("%d elements of >= %d bytes in %d bytes", n, minSize, len(d.buf))
		return -1
	}
	return int(n)
}

// Bytes reads a byte slice with a nil-aware length (a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Len(1)
	if n < 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf)
	d.buf = d.buf[n:]
	return b
}
