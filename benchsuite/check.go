package main

import (
	"fmt"
	"strconv"

	"adaptivecc/internal/core"
	"adaptivecc/internal/verify"
)

// objKey names one version of one object.
type objKey struct {
	obj uint32
	ver version
}

// successors maps each overwritten version to the committed transaction
// that overwrote it. Two overwriters of one version are a lost update,
// which verify reports; the first is kept here.
func successors(txs []txRec) map[objKey]version {
	next := make(map[objKey]version)
	for _, t := range txs {
		for _, o := range t.ops {
			if !o.wrote {
				continue
			}
			k := objKey{o.obj, o.read}
			if _, dup := next[k]; !dup {
				next[k] = t.ver
			}
		}
	}
	return next
}

// checkHistory checks the committed transactions of one load:
//   - every read returned the initial bytes or the tag of a committed
//     attempt (no dirty, aborted or invented version);
//   - no read is stale in real time: a transaction that began after a
//     newer version of an object had committed never reads the older one;
//   - verify.History.Check finds the history conflict-serializable, which
//     also rejects lost updates.
func checkHistory(txs []txRec) error {
	byVer := make(map[version]*txRec, len(txs))
	for i := range txs {
		byVer[txs[i].ver] = &txs[i]
	}
	next := successors(txs)
	for _, t := range txs {
		for _, o := range t.ops {
			if o.read != 0 && byVer[o.read] == nil {
				return fmt.Errorf("%s read object %d at version %s, which no committed transaction wrote",
					t.ver.name(), o.obj, o.read.name())
			}
			if w, ok := next[objKey{o.obj, o.read}]; ok && w != t.ver && byVer[w].end < t.begin {
				return fmt.Errorf("stale read: %s read object %d at version %s after %s had committed its successor",
					t.ver.name(), o.obj, o.read.name(), w.name())
			}
		}
	}

	objNames := make(map[uint32]string)
	verNames := map[version]string{0: ""}
	name := func(v version) string {
		s, ok := verNames[v]
		if !ok {
			s = v.name()
			verNames[v] = s
		}
		return s
	}
	h := verify.NewHistory()
	for _, t := range txs {
		ops := make([]verify.Op, len(t.ops))
		for i, o := range t.ops {
			on, ok := objNames[o.obj]
			if !ok {
				on = strconv.FormatUint(uint64(o.obj), 10)
				objNames[o.obj] = on
			}
			ops[i] = verify.Op{Object: on, Read: verify.Version{Writer: name(o.read)}, DidRead: true, Wrote: o.wrote}
		}
		h.Commit(verify.TxRecord{Name: name(t.ver), Ops: ops})
	}
	return h.Check()
}

// finalVersions follows each written object's version chain from the
// initial content to its last committed write.
func finalVersions(txs []txRec) map[uint32]version {
	next := successors(txs)
	out := make(map[uint32]version)
	for k := range next {
		if k.ver != 0 {
			continue
		}
		v := version(0)
		for steps := 0; steps <= len(txs); steps++ {
			w, ok := next[objKey{k.obj, v}]
			if !ok {
				break
			}
			v = w
		}
		out[k.obj] = v
	}
	return out
}

// checkFinalState reads every written object back through a client peer,
// one transaction per page, and compares it with the last committed write
// of its chain: a committed update that never reached the database fails
// here even if no later transaction happened to read it.
func checkFinalState(c *cluster, txs []txRec) error {
	byPage := make(map[uint32][]uint32)
	final := finalVersions(txs)
	for obj := range final {
		byPage[obj/objsPerPage] = append(byPage[obj/objsPerPage], obj)
	}
	p := c.clients[0]
	for _, objs := range byPage {
		x := p.Begin()
		for _, obj := range objs {
			data, err := x.Read(c.objs[obj])
			if err != nil {
				_ = x.Abort()
				return fmt.Errorf("read-back of object %d: %w", obj, err)
			}
			if got, ok := decodeTag(data, len(c.clients)); !ok || got != final[obj] {
				_ = x.Abort()
				return fmt.Errorf("object %d holds %q, want the write of %s", obj, data, final[obj].name())
			}
		}
		if err := x.Commit(); err != nil {
			return fmt.Errorf("read-back commit: %w", err)
		}
	}
	return nil
}

// checkPeers requires every peer to be free of asynchronous errors.
func checkPeers(peers []*core.Peer) error {
	for _, p := range peers {
		if err := p.LastError(); err != nil {
			return fmt.Errorf("peer %s: %w", p.Name(), err)
		}
	}
	return nil
}
