package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
)

// fuzzPayload exercises every primitive the codec offers.
type fuzzPayload struct {
	N int
	S string
	B []byte
}

// testCodec is this package's stand-in for the protocol layer's codec: it
// carries nil, tcpTestPayload, and fuzzPayload.
type testCodec struct{}

func init() { SetPayloadCodec(testCodec{}) }

func (testCodec) AppendPayload(dst []byte, v any) ([]byte, error) {
	switch p := v.(type) {
	case nil:
		return append(dst, 0), nil
	case tcpTestPayload:
		return AppendVarint(append(dst, 1), int64(p.V)), nil
	case fuzzPayload:
		dst = AppendVarint(append(dst, 2), int64(p.N))
		dst = AppendStr(dst, p.S)
		return AppendBytes(dst, p.B), nil
	}
	return dst, fmt.Errorf("testCodec: no encoding for %T", v)
}

func (testCodec) DecodePayload(d *Decoder) any {
	switch tag := d.Byte(); tag {
	case 0:
		return nil
	case 1:
		return tcpTestPayload{V: int(d.Varint())}
	case 2:
		return fuzzPayload{N: int(d.Varint()), S: d.Str(), B: d.Bytes()}
	default:
		d.Failf("unknown tag %d", tag)
		return nil
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("x"),
		[]byte("hello, frame"),
		bytes.Repeat([]byte{0xAB}, 4096),
		bytes.Repeat([]byte("page"), 64*1024),
		[]byte("short again"),
	}
	var wire bytes.Buffer
	for _, p := range payloads {
		if err := writeFrame(&wire, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	// One buffer threads through every read, as in readLoop.
	var buf []byte
	for i, want := range payloads {
		got, err := readFrame(&wire, buf)
		if err != nil {
			t.Fatalf("readFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame #%d: got %d bytes, want %d", i, len(got), len(want))
		}
		buf = got
	}
	if _, err := readFrame(&wire, buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read past last frame: %v, want EOF", err)
	}
}

// frame builds a raw frame with full control over each header field, for
// corruption tests.
func frame(version byte, length uint32, crc uint32, payload []byte) []byte {
	var b bytes.Buffer
	var hdr [wireHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], length)
	hdr[4] = version
	binary.BigEndian.PutUint32(hdr[5:9], crc)
	b.Write(hdr[:])
	b.Write(payload)
	return b.Bytes()
}

func TestFrameDecodeErrors(t *testing.T) {
	good := appendFrame(nil, []byte("payload"))
	// A well-formed version-1 frame (gob era): valid length and CRC, so
	// only the version byte can refuse it.
	gobEra := []byte("\x1d\xff\x81\x03\x01\x01\twireFrame\x01\xff\x82\x00\x01\x01\x01\x03Msg")
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"truncated header", good[:5], io.ErrUnexpectedEOF},
		{"truncated payload", good[:len(good)-3], ErrBadFrame},
		{"empty payload", frame(wireVersion, 0, 0, nil), ErrEmptyFrame},
		{"wrong version", frame(wireVersion+1, 7, 0, []byte("payload")), ErrBadVersion},
		{"version 1 frame", frame(1, uint32(len(gobEra)), crc32.ChecksumIEEE(gobEra), gobEra), ErrBadVersion},
		{"oversized length", frame(wireVersion, maxFramePayload+1, 0, nil), ErrFrameTooBig},
		{"garbage length", frame(wireVersion, 0xFFFFFFFF, 0, nil), ErrFrameTooBig},
		{"corrupt crc", frame(wireVersion, 7, 0xDEADBEEF, []byte("payload")), ErrBadChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrame(bytes.NewReader(tc.raw), nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// A flipped payload bit must be caught by the checksum.
	bad := append([]byte(nil), good...)
	bad[wireHeaderSize] ^= 0x01
	if _, err := readFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("bit flip err = %v, want ErrBadChecksum", err)
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{From: "c1", To: "srv", Kind: "req", CarriesPage: true, BatchItems: 3,
			Payload: fuzzPayload{N: 42, S: "hello", B: []byte{1, 2, 3}}},
		{From: "srv", To: "c1", Kind: "resp", Payload: fuzzPayload{N: -7, B: []byte{}}},
		{From: "a", To: "b", Payload: fuzzPayload{}},
		{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: 1 << 40}},
		{From: "", To: "", BatchItems: -1},
	}
	var d Decoder
	for _, in := range msgs {
		raw, err := appendMessage(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeMessage(&d, raw)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if fmt.Sprintf("%#v", out) != fmt.Sprintf("%#v", in) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", out, in)
		}
		// The decoded message owns its bytes: scribbling over the frame
		// must not reach it.
		for i := range raw {
			raw[i] = 0xEE
		}
		if p, ok := out.Payload.(fuzzPayload); ok && len(p.B) > 0 && p.B[0] == 0xEE {
			t.Fatal("decoded bytes alias the frame buffer")
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := wireHello{From: "c1", To: "srv", Path: 3}
	out, err := decodeHello(appendHello(nil, in))
	if err != nil || out != in {
		t.Fatalf("hello round trip = %+v, %v; want %+v", out, err, in)
	}
	if _, err := decodeHello(append(appendHello(nil, in), 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hello with trailing byte: err = %v, want ErrBadFrame", err)
	}
}

// TestDecoderRejectsNonCanonical pins the canonical-form rules that make
// every accepted payload re-encode to the identical bytes, and the length
// checks that keep a hostile prefix from allocating.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		read func(d *Decoder)
	}{
		{"non-minimal varint", []byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		{"overflowing varint", bytes.Repeat([]byte{0xFF}, 11), func(d *Decoder) { d.Uvarint() }},
		{"bool byte 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"value over max", []byte{0x80, 0x02}, func(d *Decoder) { d.UvarintMax(255) }},
		{"string past end", []byte{5, 'a', 'b'}, func(d *Decoder) { d.Str() }},
		{"bytes past end", []byte{6, 'a', 'b'}, func(d *Decoder) { d.Bytes() }},
		{"count past end", []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}, func(d *Decoder) { d.Len(1) }},
		{"count times min size past end", []byte{4, 1, 2, 3, 4, 5}, func(d *Decoder) { d.Len(2) }},
		{"truncated", nil, func(d *Decoder) { d.Byte() }},
		{"trailing bytes", []byte{1, 2}, func(d *Decoder) { d.Byte() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d Decoder
			d.Reset(tc.raw)
			tc.read(&d)
			if err := d.Finish(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
		})
	}
	// Nil and empty slices stay distinct.
	var d Decoder
	d.Reset(AppendBytes(AppendBytes(nil, nil), []byte{}))
	if b := d.Bytes(); b != nil {
		t.Errorf("nil bytes decoded as %#v", b)
	}
	if b := d.Bytes(); b == nil || len(b) != 0 {
		t.Errorf("empty bytes decoded as %#v", b)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeUnknownPayload: a payload outside the codec's vocabulary is an
// error that leaves the buffer as it was, never a partial frame.
func TestEncodeUnknownPayload(t *testing.T) {
	prefix := []byte("queued frames")
	out, err := appendMessageFrame(append([]byte(nil), prefix...),
		Message{From: "a", To: "b", Payload: struct{ X int }{1}})
	if err == nil {
		t.Fatal("unknown payload type encoded without error")
	}
	if !bytes.Equal(out, prefix) {
		t.Fatalf("failed encode left %d bytes, want %d", len(out), len(prefix))
	}
}

// recordConn is a net.Conn that records each Write call.
type recordConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

// decodeFrames splits a byte stream back into messages.
func decodeFrames(t *testing.T, stream []byte) []Message {
	t.Helper()
	r := bytes.NewReader(stream)
	var (
		out []Message
		d   Decoder
	)
	for r.Len() > 0 {
		payload, err := readFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeMessage(&d, payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestShipCoalescesQueuedMessages drives one path's writer directly: every
// message queued behind the first goes out in the same Write, in FIFO
// order; a queue larger than maxWriteBatch splits across Writes without
// reordering. Frame sizes are observed per frame, write latency per Write.
func TestShipCoalescesQueuedMessages(t *testing.T) {
	tc, stats := newTestTCP(t, 1)
	set := obs.NewSet(obs.Config{Enabled: true, TraceCap: 8}, stats)
	conn := &recordConn{}
	p := &tcpPath{t: tc, key: linkKey{"a", "b"}, out: make(chan Message, 64), conn: conn}
	p.instrument(set)

	const n = 20
	for i := 1; i < n; i++ {
		p.out <- Message{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: i}}
	}
	buf := p.ship(nil, Message{From: "a", To: "b", Kind: "ping", Payload: tcpTestPayload{V: 0}})
	if len(conn.writes) != 1 {
		t.Fatalf("writes = %d, want 1 for %d queued messages", len(conn.writes), n)
	}
	msgs := decodeFrames(t, conn.writes[0])
	if len(msgs) != n {
		t.Fatalf("frames in the write = %d, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if v := m.Payload.(tcpTestPayload).V; v != i {
			t.Fatalf("frame %d carries %d: FIFO broken", i, v)
		}
	}
	if got := set.Merged(obs.HistTCPFrameSize).Count; got != n {
		t.Errorf("frame-size observations = %d, want %d (one per frame)", got, n)
	}
	if got := set.Merged(obs.HistTCPFrameWrite).Count; got != 1 {
		t.Errorf("frame-write observations = %d, want 1 (one per Write)", got)
	}

	// Five 100 KB messages overflow one batch.
	conn.writes = nil
	big := bytes.Repeat([]byte{7}, 100<<10)
	for i := 1; i < 5; i++ {
		p.out <- Message{From: "a", To: "b", Payload: fuzzPayload{N: i, B: big}}
	}
	p.ship(buf, Message{From: "a", To: "b", Payload: fuzzPayload{N: 0, B: big}})
	for len(p.out) > 0 {
		p.ship(buf, <-p.out)
	}
	if len(conn.writes) < 2 {
		t.Fatalf("writes = %d, want the 500 KB queue split across several", len(conn.writes))
	}
	msgs = decodeFrames(t, bytes.Join(conn.writes, nil))
	for i, m := range msgs {
		if v := m.Payload.(fuzzPayload).N; v != i {
			t.Fatalf("frame %d carries %d: FIFO broken across writes", i, v)
		}
	}
	if len(msgs) != 5 {
		t.Fatalf("frames = %d, want 5", len(msgs))
	}
	if got := stats.Get(sim.CtrNetDrops); got != 0 {
		t.Errorf("net drops = %d, want 0", got)
	}
}

// FuzzReadFrame throws arbitrary bytes at the length-prefix decoder: it
// must never panic or over-allocate, and whenever it does accept a frame,
// re-encoding the payload must reproduce a decodable frame (round-trip
// property).
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, []byte("seed payload")))
	f.Add(frame(wireVersion, 0xFFFFFFFF, 0, nil))
	f.Add(frame(wireVersion+3, 4, 0, []byte("vers")))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := readFrame(bytes.NewReader(raw), nil)
		if err != nil {
			return
		}
		// Accepted frames must round-trip.
		again, err := readFrame(bytes.NewReader(appendFrame(nil, payload)), nil)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("payload changed across round trip")
		}
		// And the decoder must have consumed exactly header+len bytes of
		// the input prefix.
		if len(payload)+wireHeaderSize > len(raw) {
			t.Fatalf("decoder produced %d payload bytes from %d input bytes", len(payload), len(raw))
		}
	})
}

// decodeAllocBound is the most a decode of n input bytes may allocate:
// a fixed allowance for error values and boxing, plus a constant factor
// per input byte (a length prefix may claim only elements the remaining
// bytes can hold, each at least one byte).
func decodeAllocBound(n int) uint64 { return 64<<10 + 64*uint64(n) }

// FuzzDecodeMessage holds the message decoder to three properties: it
// never panics, no length prefix makes it allocate past what the input can
// back, and every input it accepts re-encodes to the identical bytes.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []Message{
		{From: "a", To: "b", Kind: "req", Payload: fuzzPayload{N: 1, S: "s", B: []byte{1}}},
		{From: "srv", To: "c1", Kind: "resp", CarriesPage: true, BatchItems: 2, Payload: tcpTestPayload{V: -3}},
		{From: "a", To: "b"},
	} {
		raw, err := appendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("not a message at all"))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var (
			d  Decoder
			ms runtime.MemStats
		)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		msg, err := decodeMessage(&d, raw)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > decodeAllocBound(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		again, err := appendMessage(nil, msg)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", raw, again)
		}
	})
}
