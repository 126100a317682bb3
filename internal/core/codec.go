package core

import (
	"fmt"
	"math"

	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/wal"
)

// wireCodec is the TCP fabric's binary encoding of this package's closed
// message vocabulary (DESIGN.md §13). Every Message payload and every
// envelope or reply body starts with a type tag; fields follow in
// declaration order, built from the transport's primitives. Payload and
// body tags are disjoint and each position accepts only its own, so a
// body can never smuggle in a nested envelope. Decoding copies every byte
// it keeps and draws the envelope, reply, and callback frames from the
// same pools the receiver recycles them into. The simulated Network never
// runs any of this: payloads travel in-process by reference.
type wireCodec struct{}

func init() { transport.SetPayloadCodec(wireCodec{}) }

// Type tags. Adding a message type means adding a tag, both switch arms,
// and a sample to the round-trip test, which fails until all exist.
const (
	tagNil byte = iota

	// Message payloads, by kind.
	tagEnvelope        // *rpcEnvelope: kindRequest, kindPurgeFlush
	tagReply           // *rpcReply: kindReply
	tagCallbackReq     // *callbackReq: kindCallback
	tagCallbackAck     // callbackAck: kindCallbackAck
	tagCallbackBlocked // callbackBlocked: kindCallbackBlocked

	// Request bodies (rpcEnvelope.Body).
	tagReadReq
	tagWriteReq
	tagLockReq
	tagPrepareReq
	tagDecideReq
	tagStatusReq
	tagFinishReq
	tagReleaseReq
	tagDeescReq

	// Reply bodies (rpcReply.Body).
	tagReadResp
	tagWriteResp
	tagLockResp
	tagPrepareResp
	tagDecideResp
	tagStatusResp
	tagFinishResp
	tagReleaseResp
	tagDeescResp

	numTags
)

// Minimum encoded sizes of slice elements, which bound the element count
// a length prefix may claim before anything is allocated for it.
const (
	minTxSize      = 2             // empty site, one-byte seq
	minItemSize    = 5             // five one-byte fields
	minReplicaSize = 2 + 5 + 1     // tx, item, mode
	minRecordSize  = 1 + 2 + 5 + 2 // lsn, tx, object, two nil images
	minPurgeSize   = 5 + 1 + 2     // page, install, two nil slices
	minAckSize     = 3             // op id, empty client, bool
)

// AppendPayload encodes one Message payload.
func (wireCodec) AppendPayload(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case *rpcEnvelope:
		if m == nil {
			break
		}
		dst = append(dst, tagEnvelope)
		dst = transport.AppendUvarint(dst, m.ReqID)
		dst = transport.AppendStr(dst, m.From)
		dst = appendSpan(dst, m.Span)
		dst = appendSlice(dst, m.Pig, appendPurge)
		dst = appendSlice(dst, m.Acks, appendAck)
		dst = appendSlice(dst, m.Rels, appendTx)
		return appendBody(dst, m.Body)
	case *rpcReply:
		if m == nil {
			break
		}
		dst = append(dst, tagReply)
		dst = transport.AppendUvarint(dst, m.ReqID)
		dst = transport.AppendStr(dst, string(m.Code))
		dst = transport.AppendStr(dst, m.Detail)
		return appendBody(dst, m.Body)
	case *callbackReq:
		if m == nil {
			break
		}
		dst = append(dst, tagCallbackReq)
		dst = transport.AppendUvarint(dst, m.OpID)
		dst = transport.AppendStr(dst, m.Server)
		dst = appendTx(dst, m.Tx)
		dst = appendItem(dst, m.Item)
		dst = appendItem(dst, m.Page)
		dst = transport.AppendBool(dst, m.ObjectGrain)
		return appendSpan(dst, m.Span), nil
	case callbackAck:
		return appendAck(append(dst, tagCallbackAck), m), nil
	case callbackBlocked:
		dst = append(dst, tagCallbackBlocked)
		dst = transport.AppendUvarint(dst, m.OpID)
		dst = transport.AppendStr(dst, m.Client)
		dst = appendItem(dst, m.Item)
		return appendSlice(dst, m.Conflicts, appendReplica), nil
	}
	return dst, fmt.Errorf("core: no wire encoding for payload %T", v)
}

// DecodePayload decodes one Message payload.
func (wireCodec) DecodePayload(d *transport.Decoder) any {
	switch tag := d.Byte(); tag {
	case tagNil:
		return nil
	case tagEnvelope:
		e := getEnvelope()
		e.ReqID = d.Uvarint()
		e.From = d.Str()
		e.Span = decodeSpan(d)
		e.Pig = decodeSlice(d, minPurgeSize, decodePurge)
		e.Acks = decodeSlice(d, minAckSize, decodeAck)
		e.Rels = decodeSlice(d, minTxSize, decodeTx)
		e.Body = decodeBody(d)
		return e
	case tagReply:
		r := getReply()
		r.ReqID = d.Uvarint()
		r.Code = errCode(d.Str())
		r.Detail = d.Str()
		r.Body = decodeBody(d)
		return r
	case tagCallbackReq:
		r := getCbReq()
		r.OpID = d.Uvarint()
		r.Server = d.Str()
		r.Tx = decodeTx(d)
		r.Item = decodeItem(d)
		r.Page = decodeItem(d)
		r.ObjectGrain = d.Bool()
		r.Span = decodeSpan(d)
		return r
	case tagCallbackAck:
		return decodeAck(d)
	case tagCallbackBlocked:
		return callbackBlocked{
			OpID:      d.Uvarint(),
			Client:    d.Str(),
			Item:      decodeItem(d),
			Conflicts: decodeSlice(d, minReplicaSize, decodeReplica),
		}
	default:
		d.Failf("unknown payload tag %d", tag)
		return nil
	}
}

// appendBody encodes an envelope or reply body.
func appendBody(dst []byte, body any) ([]byte, error) {
	switch b := body.(type) {
	case nil:
		return append(dst, tagNil), nil
	case readReq:
		dst = appendTx(append(dst, tagReadReq), b.Tx)
		dst = appendItem(dst, b.Obj)
		return transport.AppendBool(dst, b.WholePage), nil
	case writeReq:
		dst = appendTx(append(dst, tagWriteReq), b.Tx)
		dst = appendItem(dst, b.Obj)
		dst = transport.AppendBool(dst, b.HavePage)
		return transport.AppendBool(dst, b.HaveObj), nil
	case lockReq:
		dst = appendTx(append(dst, tagLockReq), b.Tx)
		dst = appendItem(dst, b.Item)
		return transport.AppendVarint(dst, int64(b.Mode)), nil
	case prepareReq:
		dst = appendTx(append(dst, tagPrepareReq), b.Tx)
		dst = appendSlice(dst, b.Records, appendRecord)
		return transport.AppendStr(dst, b.Coord), nil
	case decideReq:
		dst = appendTx(append(dst, tagDecideReq), b.Tx)
		return transport.AppendBool(dst, b.Commit), nil
	case statusReq:
		return appendTx(append(dst, tagStatusReq), b.Tx), nil
	case finishReq:
		dst = appendTx(append(dst, tagFinishReq), b.Tx)
		return transport.AppendBool(dst, b.Commit), nil
	case releaseReq:
		return appendTx(append(dst, tagReleaseReq), b.Tx), nil
	case deescReq:
		return appendItem(append(dst, tagDeescReq), b.Page), nil
	case readResp:
		dst = appendPage(append(dst, tagReadResp), b.Page)
		dst = transport.AppendUvarint(dst, uint64(b.Avail))
		dst = transport.AppendUvarint(dst, b.Install)
		return transport.AppendBytes(dst, b.ObjData), nil
	case writeResp:
		dst = transport.AppendBool(append(dst, tagWriteResp), b.Adaptive)
		dst = appendPage(dst, b.Page)
		dst = transport.AppendUvarint(dst, uint64(b.Avail))
		dst = transport.AppendUvarint(dst, b.Install)
		return transport.AppendBytes(dst, b.ObjData), nil
	case lockResp:
		return append(dst, tagLockResp), nil
	case prepareResp:
		return append(dst, tagPrepareResp), nil
	case decideResp:
		return append(dst, tagDecideResp), nil
	case statusResp:
		return transport.AppendBool(append(dst, tagStatusResp), b.Commit), nil
	case finishResp:
		return append(dst, tagFinishResp), nil
	case releaseResp:
		return append(dst, tagReleaseResp), nil
	case deescResp:
		return appendSlice(append(dst, tagDeescResp), b.Locks, appendReplica), nil
	}
	return dst, fmt.Errorf("core: no wire encoding for body %T", body)
}

// decodeBody decodes an envelope or reply body.
func decodeBody(d *transport.Decoder) any {
	switch tag := d.Byte(); tag {
	case tagNil:
		return nil
	case tagReadReq:
		return readReq{Tx: decodeTx(d), Obj: decodeItem(d), WholePage: d.Bool()}
	case tagWriteReq:
		return writeReq{Tx: decodeTx(d), Obj: decodeItem(d), HavePage: d.Bool(), HaveObj: d.Bool()}
	case tagLockReq:
		return lockReq{Tx: decodeTx(d), Item: decodeItem(d), Mode: lock.Mode(d.Varint())}
	case tagPrepareReq:
		return prepareReq{
			Tx:      decodeTx(d),
			Records: decodeSlice(d, minRecordSize, decodeRecord),
			Coord:   d.Str(),
		}
	case tagDecideReq:
		return decideReq{Tx: decodeTx(d), Commit: d.Bool()}
	case tagStatusReq:
		return statusReq{Tx: decodeTx(d)}
	case tagFinishReq:
		return finishReq{Tx: decodeTx(d), Commit: d.Bool()}
	case tagReleaseReq:
		return releaseReq{Tx: decodeTx(d)}
	case tagDeescReq:
		return deescReq{Page: decodeItem(d)}
	case tagReadResp:
		return readResp{
			Page:    decodePage(d),
			Avail:   storage.AvailMask(d.Uvarint()),
			Install: d.Uvarint(),
			ObjData: d.Bytes(),
		}
	case tagWriteResp:
		return writeResp{
			Adaptive: d.Bool(),
			Page:     decodePage(d),
			Avail:    storage.AvailMask(d.Uvarint()),
			Install:  d.Uvarint(),
			ObjData:  d.Bytes(),
		}
	case tagLockResp:
		return lockResp{}
	case tagPrepareResp:
		return prepareResp{}
	case tagDecideResp:
		return decideResp{}
	case tagStatusResp:
		return statusResp{Commit: d.Bool()}
	case tagFinishResp:
		return finishResp{}
	case tagReleaseResp:
		return releaseResp{}
	case tagDeescResp:
		return deescResp{Locks: decodeSlice(d, minReplicaSize, decodeReplica)}
	default:
		d.Failf("unknown body tag %d", tag)
		return nil
	}
}

// appendSlice encodes a nil-aware slice, one element at a time.
func appendSlice[T any](dst []byte, s []T, elem func([]byte, T) []byte) []byte {
	dst = transport.AppendLen(dst, len(s), s == nil)
	for _, v := range s {
		dst = elem(dst, v)
	}
	return dst
}

// decodeSlice decodes a slice written by appendSlice.
func decodeSlice[T any](d *transport.Decoder, minSize int, elem func(*transport.Decoder) T) []T {
	n := d.Len(minSize)
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem(d)
	}
	return s
}

func appendTx(dst []byte, t lock.TxID) []byte {
	return transport.AppendUvarint(transport.AppendStr(dst, t.Site), t.Seq)
}

func decodeTx(d *transport.Decoder) lock.TxID {
	return lock.TxID{Site: d.Str(), Seq: d.Uvarint()}
}

func appendItem(dst []byte, it storage.ItemID) []byte {
	dst = transport.AppendVarint(dst, int64(it.Level))
	dst = transport.AppendUvarint(dst, uint64(it.Vol))
	dst = transport.AppendUvarint(dst, uint64(it.File))
	dst = transport.AppendUvarint(dst, uint64(it.Page))
	return transport.AppendUvarint(dst, uint64(it.Slot))
}

func decodeItem(d *transport.Decoder) storage.ItemID {
	return storage.ItemID{
		Level: storage.Level(d.Varint()),
		Vol:   storage.VolumeID(d.UvarintMax(math.MaxUint16)),
		File:  uint32(d.UvarintMax(math.MaxUint32)),
		Page:  uint32(d.UvarintMax(math.MaxUint32)),
		Slot:  uint16(d.UvarintMax(math.MaxUint16)),
	}
}

func appendSpan(dst []byte, s obs.SpanContext) []byte {
	dst = transport.AppendStr(dst, s.Trace)
	dst = transport.AppendUvarint(dst, s.Span)
	return transport.AppendUvarint(dst, s.Parent)
}

func decodeSpan(d *transport.Decoder) obs.SpanContext {
	return obs.SpanContext{Trace: d.Str(), Span: d.Uvarint(), Parent: d.Uvarint()}
}

func appendReplica(dst []byte, r lockReplica) []byte {
	dst = appendItem(appendTx(dst, r.Tx), r.Item)
	return transport.AppendVarint(dst, int64(r.Mode))
}

func decodeReplica(d *transport.Decoder) lockReplica {
	return lockReplica{Tx: decodeTx(d), Item: decodeItem(d), Mode: lock.Mode(d.Varint())}
}

func appendRecord(dst []byte, r wal.Record) []byte {
	dst = transport.AppendUvarint(dst, r.LSN)
	dst = appendItem(appendTx(dst, r.Tx), r.Object)
	dst = transport.AppendBytes(dst, r.Before)
	return transport.AppendBytes(dst, r.After)
}

func decodeRecord(d *transport.Decoder) wal.Record {
	return wal.Record{
		LSN:    d.Uvarint(),
		Tx:     decodeTx(d),
		Object: decodeItem(d),
		Before: d.Bytes(),
		After:  d.Bytes(),
	}
}

func appendPurge(dst []byte, n purgeNotice) []byte {
	dst = transport.AppendUvarint(appendItem(dst, n.Page), n.Install)
	dst = appendSlice(dst, n.Locks, appendReplica)
	return appendSlice(dst, n.Records, appendRecord)
}

func decodePurge(d *transport.Decoder) purgeNotice {
	return purgeNotice{
		Page:    decodeItem(d),
		Install: d.Uvarint(),
		Locks:   decodeSlice(d, minReplicaSize, decodeReplica),
		Records: decodeSlice(d, minRecordSize, decodeRecord),
	}
}

func appendAck(dst []byte, a callbackAck) []byte {
	dst = transport.AppendStr(transport.AppendUvarint(dst, a.OpID), a.Client)
	return transport.AppendBool(dst, a.Invalidated)
}

func decodeAck(d *transport.Decoder) callbackAck {
	return callbackAck{OpID: d.Uvarint(), Client: d.Str(), Invalidated: d.Bool()}
}

// appendPage encodes a possibly nil page: a presence flag, then its id,
// LSN, and object slots.
func appendPage(dst []byte, pg *storage.Page) []byte {
	if pg == nil {
		return transport.AppendBool(dst, false)
	}
	dst = appendItem(transport.AppendBool(dst, true), pg.ID)
	dst = transport.AppendUvarint(dst, pg.LSN)
	return appendSlice(dst, pg.Objects, transport.AppendBytes)
}

func decodePage(d *transport.Decoder) *storage.Page {
	if !d.Bool() {
		return nil
	}
	return &storage.Page{
		ID:      decodeItem(d),
		LSN:     d.Uvarint(),
		Objects: decodeSlice(d, 1, (*transport.Decoder).Bytes),
	}
}
