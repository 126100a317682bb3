package core

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"testing"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/wal"
)

// Sample values for the codec tests and benchmarks.
var (
	sampleTx   = lock.TxID{Site: "c1", Seq: 1 << 40}
	sampleObj  = storage.ObjectItem(1, 2, 300, 17)
	samplePage = storage.PageItem(1, 2, 300)
	sampleSpan = obs.SpanContext{Trace: "c1:7", Span: 7<<32 | 9, Parent: 7<<32 | 8}
)

// fullPage is a 20-object page of 64-byte slots with distinct contents.
func fullPage() *storage.Page {
	pg := storage.NewPage(samplePage, storage.DefaultObjectsPerPage, 64)
	for i, o := range pg.Objects {
		for j := range o {
			o[j] = byte(i*64 + j)
		}
	}
	pg.LSN = 99
	return pg
}

func sampleRecords(n int) []wal.Record {
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = wal.Record{
			LSN:    uint64(i),
			Tx:     sampleTx,
			Object: storage.ObjectItem(1, 2, 300, uint16(i)),
			Before: bytes.Repeat([]byte{byte(i)}, 64),
			After:  bytes.Repeat([]byte{byte(i + 1)}, 64),
		}
	}
	return recs
}

func sampleReplicas() []lockReplica {
	return []lockReplica{
		{Tx: sampleTx, Item: sampleObj, Mode: lock.EX},
		{Tx: lock.TxID{Site: "c2", Seq: 3}, Item: samplePage, Mode: lock.SIX},
	}
}

// wireBodies enumerates every envelope and reply body type, with edge
// cases: nil and empty slices, a nil page, and a full page.
func wireBodies() []any {
	return []any{
		nil,
		readReq{Tx: sampleTx, Obj: sampleObj},
		readReq{Tx: sampleTx, Obj: samplePage, WholePage: true},
		writeReq{Tx: sampleTx, Obj: sampleObj, HavePage: true, HaveObj: false},
		lockReq{Tx: sampleTx, Item: storage.FileItem(1, 2), Mode: lock.IX},
		prepareReq{Tx: sampleTx, Records: sampleRecords(3), Coord: "srv-1"},
		prepareReq{Tx: sampleTx},
		prepareReq{Tx: sampleTx, Records: []wal.Record{}},
		prepareReq{Tx: sampleTx, Records: []wal.Record{{Tx: sampleTx, Object: sampleObj, Before: []byte{}}}},
		decideReq{Tx: sampleTx, Commit: true},
		statusReq{Tx: sampleTx},
		finishReq{Tx: sampleTx, Commit: true},
		finishReq{},
		releaseReq{Tx: sampleTx},
		deescReq{Page: samplePage},
		readResp{Page: fullPage(), Avail: storage.AllAvailable(20), Install: 5},
		readResp{ObjData: []byte("object bytes"), Install: 2},
		readResp{ObjData: []byte{}},
		readResp{Page: &storage.Page{ID: samplePage, Objects: [][]byte{nil, {}, {1}}}},
		readResp{Page: &storage.Page{ID: samplePage}},
		writeResp{Adaptive: true, Page: fullPage(), Avail: storage.AllAvailable(20).Without(3), Install: 1},
		writeResp{ObjData: []byte{9, 8, 7}},
		writeResp{},
		lockResp{},
		prepareResp{},
		decideResp{},
		statusResp{Commit: true},
		statusResp{},
		finishResp{},
		releaseResp{},
		deescResp{Locks: sampleReplicas()},
		deescResp{Locks: []lockReplica{}},
		deescResp{},
	}
}

// wirePayloads enumerates every Message payload type — each body riding
// both an envelope and a reply — plus edge cases: a nil payload, the zero
// SpanContext, nil and empty piggyback slices, and a page-carrying reply
// next to an envelope loaded with purges, acks, and releases.
func wirePayloads() []any {
	out := []any{
		nil,
		&rpcEnvelope{},
		&rpcEnvelope{ReqID: 1, From: "c1", Pig: []purgeNotice{}, Acks: []callbackAck{}, Rels: []lock.TxID{}},
		&rpcEnvelope{
			ReqID: 42, From: "c1", Span: sampleSpan,
			Pig: []purgeNotice{
				{Page: samplePage, Install: 3, Locks: sampleReplicas(), Records: sampleRecords(2)},
				{Page: storage.PageItem(1, 2, 301), Install: 1},
			},
			Acks: []callbackAck{{OpID: 5, Client: "c1", Invalidated: true}, {OpID: 6, Client: "c1"}},
			Rels: []lock.TxID{sampleTx, {Site: "c1", Seq: 2}},
			Body: writeReq{Tx: sampleTx, Obj: sampleObj},
		},
		&rpcReply{ReqID: 42, Code: errDeadlock, Detail: "lock: deadlock victim"},
		&rpcReply{ReqID: 43, Body: readResp{Page: fullPage(), Avail: storage.AllAvailable(20), Install: 7}},
		&callbackReq{},
		&callbackReq{OpID: 9, Server: "srv", Tx: sampleTx, Item: sampleObj, Page: samplePage, ObjectGrain: true, Span: sampleSpan},
		callbackAck{},
		callbackAck{OpID: 9, Client: "c2", Invalidated: true},
		callbackBlocked{OpID: 9, Client: "c2", Item: sampleObj, Conflicts: sampleReplicas()},
		callbackBlocked{Conflicts: []lockReplica{}},
		callbackBlocked{},
	}
	for i, b := range wireBodies() {
		out = append(out,
			&rpcEnvelope{ReqID: uint64(i), From: "c1", Span: sampleSpan, Body: b},
			&rpcReply{ReqID: uint64(i), Body: b})
	}
	return out
}

// reachedTypes collects every struct type reachable from v's dynamic value.
func reachedTypes(v reflect.Value, seen map[reflect.Type]bool) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			reachedTypes(v.Elem(), seen)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			reachedTypes(v.Index(i), seen)
		}
	case reflect.Struct:
		seen[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			reachedTypes(v.Field(i), seen)
		}
	}
}

// TestCodecEnumerationComplete fails when a message type exists that the
// samples above do not cover, or a codec tag no sample exercises: a new
// message type must not silently fail to travel over TCP.
func TestCodecEnumerationComplete(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	for _, v := range wirePayloads() {
		reachedTypes(reflect.ValueOf(&v).Elem(), seen)
	}
	names := make(map[string]bool)
	for ty := range seen {
		names[ty.PkgPath()+"."+ty.Name()] = true
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "msg.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
				continue
			}
			declared++
			if !names["adaptivecc/internal/core."+ts.Name.Name] {
				t.Errorf("msg.go declares %s, but no codec sample carries it", ts.Name.Name)
			}
		}
	}
	if declared < 20 {
		t.Fatalf("found only %d struct types in msg.go; parser scan is broken", declared)
	}
	for _, foreign := range []any{wal.Record{}, storage.Page{}, obs.SpanContext{}, lock.TxID{}, storage.ItemID{}} {
		if !seen[reflect.TypeOf(foreign)] {
			t.Errorf("no codec sample carries %T", foreign)
		}
	}

	tags := make(map[byte]bool)
	for _, v := range wirePayloads() {
		raw, err := wireCodec{}.AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		tags[raw[0]] = true
	}
	for _, b := range wireBodies() {
		raw, err := appendBody(nil, b)
		if err != nil {
			t.Fatalf("encode body %T: %v", b, err)
		}
		tags[raw[0]] = true
	}
	for tag := byte(0); tag < numTags; tag++ {
		if !tags[tag] {
			t.Errorf("codec tag %d has no sample", tag)
		}
	}
}

// TestCodecRoundTrip encodes every sample, decodes it, and requires the
// identical value back, an identical re-encoding, and no sharing with the
// frame bytes.
func TestCodecRoundTrip(t *testing.T) {
	for _, v := range wirePayloads() {
		raw, err := wireCodec{}.AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		var d transport.Decoder
		d.Reset(raw)
		got := wireCodec{}.DecodePayload(&d)
		if err := d.Finish(); err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip of %T:\n got %+v\nwant %+v", v, got, v)
		}
		again, err := wireCodec{}.AppendPayload(nil, got)
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("re-encoding of %T differs (err %v)", v, err)
		}
		for i := range raw {
			raw[i] = 0xEE
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("decoded %T changed when the frame buffer was overwritten", v)
		}
	}
}

// TestCodecRejectsUnknownTypes: values outside the vocabulary fail to
// encode (the fabric then counts the send as refused), and unknown tags
// fail to decode.
func TestCodecRejectsUnknownTypes(t *testing.T) {
	for _, v := range []any{struct{}{}, rpcEnvelope{}, (*rpcEnvelope)(nil), &callbackAck{}, &rpcEnvelope{Body: &readReq{}}, &rpcReply{Body: 3}} {
		if _, err := (wireCodec{}).AppendPayload(nil, v); err == nil {
			t.Errorf("%#v encoded without error", v)
		}
	}
	for _, raw := range [][]byte{{numTags}, {tagReadReq}, {tagEnvelope, 0, 0, 0, 0, 0, 0, 0, 0, tagEnvelope}} {
		var d transport.Decoder
		d.Reset(raw)
		wireCodec{}.DecodePayload(&d)
		if err := d.Finish(); !errors.Is(err, transport.ErrBadFrame) {
			t.Errorf("decode %x: err = %v, want ErrBadFrame", raw, err)
		}
	}
}

// decodeAllocBound mirrors the transport fuzzer's bound: a fixed
// allowance plus a constant factor per input byte.
func decodeAllocBound(n int) uint64 { return 64<<10 + 128*uint64(n) }

// FuzzDecodePayload holds the payload decoder to the properties the
// transport's FuzzDecodeMessage pins for the frame around it: never
// panic, never allocate past what the input can back, and re-encode every
// accepted input to the identical bytes.
func FuzzDecodePayload(f *testing.F) {
	for _, v := range wirePayloads() {
		raw, err := wireCodec{}.AppendPayload(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{tagEnvelope, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var d transport.Decoder
		d.Reset(raw)
		v := wireCodec{}.DecodePayload(&d)
		err := d.Finish()
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > decodeAllocBound(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), grew)
		}
		if err != nil {
			return
		}
		again, err := wireCodec{}.AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", raw, again)
		}
	})
}

// codecBenchCases are the per-kind messages of the codec benchmarks.
func codecBenchCases() []struct {
	name string
	v    any
} {
	return []struct {
		name string
		v    any
	}{
		{"req.read", &rpcEnvelope{ReqID: 1, From: "c1", Span: sampleSpan, Body: readReq{Tx: sampleTx, Obj: sampleObj}}},
		{"req.prepare", &rpcEnvelope{ReqID: 2, From: "c1", Span: sampleSpan,
			Body: prepareReq{Tx: sampleTx, Records: sampleRecords(4)}}},
		{"req.piggyback", &rpcEnvelope{ReqID: 3, From: "c1", Span: sampleSpan,
			Pig:  []purgeNotice{{Page: samplePage, Install: 3, Locks: sampleReplicas()}},
			Acks: []callbackAck{{OpID: 5, Client: "c1", Invalidated: true}},
			Rels: []lock.TxID{sampleTx}, Body: finishReq{Tx: sampleTx, Commit: true}}},
		{"resp.read", &rpcReply{ReqID: 1, Body: readResp{Page: fullPage(), Avail: storage.AllAvailable(20), Install: 7}}},
		{"resp.finish", &rpcReply{ReqID: 4, Body: finishResp{}}},
		{"cb.req", &callbackReq{OpID: 9, Server: "srv", Tx: sampleTx, Item: sampleObj, Page: samplePage, Span: sampleSpan}},
		{"cb.ack", callbackAck{OpID: 9, Client: "c2", Invalidated: true}},
		{"cb.blocked", callbackBlocked{OpID: 9, Client: "c2", Item: sampleObj, Conflicts: sampleReplicas()}},
	}
}

// BenchmarkCodecEncode measures encoding one payload per message kind
// into a reused buffer.
func BenchmarkCodecEncode(b *testing.B) {
	for _, c := range codecBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf, _ := wireCodec{}.AppendPayload(nil, c.v)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = wireCodec{}.AppendPayload(buf[:0], c.v)
			}
		})
	}
}

// BenchmarkCodecDecode measures decoding one payload per message kind.
// Decoded frames are not recycled, so every envelope, reply, and callback
// frame is a fresh allocation and allocs/op is exact.
func BenchmarkCodecDecode(b *testing.B) {
	for _, c := range codecBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			raw, err := wireCodec{}.AppendPayload(nil, c.v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			var d transport.Decoder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset(raw)
				wireCodec{}.DecodePayload(&d)
				if d.Err() != nil {
					b.Fatal(d.Err())
				}
			}
		})
	}
}
