package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/workload"
)

// maxAttempts is the retry cap: a transaction still aborting after this
// many deadlock or timeout aborts is given up and counted as failed.
const maxAttempts = 100

// A version names one committed write of an object: the writing attempt's
// client index (plus one) in the top byte and its transaction sequence
// number below. Version 0 is the database's initial content.
type version uint64

func versionOf(client int, seq uint64) version { return version(uint64(client+1)<<56 | seq) }

func (v version) client() int { return int(v>>56) - 1 }
func (v version) seq() uint64 { return uint64(v) & (1<<56 - 1) }

// name renders the version as the writing attempt's transaction ID.
func (v version) name() string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("c%d:%d", v.client()+1, v.seq())
}

// Every write stores the attempt's tag: a marker byte, the client index and
// the transaction sequence number.
const (
	tagLen    = 10
	tagMarker = 0xA5
)

func encodeTag(client int, seq uint64) []byte {
	b := make([]byte, tagLen)
	b[0], b[1] = tagMarker, byte(client)
	binary.LittleEndian.PutUint64(b[2:], seq)
	return b
}

// decodeTag maps an object's bytes back to the version that wrote them;
// anything other than a well-formed tag of a known client or the untouched
// initial bytes is a wrong byte.
func decodeTag(b []byte, clients int) (version, bool) {
	if len(b) == tagLen && b[0] == tagMarker && int(b[1]) < clients {
		seq := binary.LittleEndian.Uint64(b[2:])
		if seq != 0 && seq < 1<<56 {
			return versionOf(int(b[1]), seq), true
		}
		return 0, false
	}
	if len(b) != objSize {
		return 0, false
	}
	for _, c := range b {
		if c != 0 {
			return 0, false
		}
	}
	return 0, true
}

// op is one object access of a committed transaction, in compact form.
type op struct {
	obj   uint32  // global object index
	read  version // version the read returned
	wrote bool
}

// txRec is one committed transaction. Times are nanoseconds since the load
// started.
type txRec struct {
	ver      version // the committed attempt's tag
	first    int64   // Begin of the first attempt
	begin    int64   // Begin of the committed attempt
	end      int64   // return of the successful Commit
	commit   int64   // duration of that Commit call
	attempts int
	ops      []op
}

// span is one benchmark-side call into core.Tx, kept in traced runs.
type span struct {
	kind  spanKind
	tx    version
	start int64
	dur   int64
}

type spanKind uint8

const (
	spanRead spanKind = iota
	spanWrite
	spanCommit
)

func (k spanKind) String() string {
	return [...]string{"Tx.Read", "Tx.Write", "Tx.Commit"}[k]
}

// app is one closed-loop client: it runs its generator's transactions
// back to back, re-executing a reference string after a deadlock or
// timeout abort until it commits.
type app struct {
	idx    int
	peer   *core.Peer
	c      *cluster
	gen    *workload.Generator
	rng    *rand.Rand
	traced bool
	t0     time.Time

	buf      []op
	txs      []txRec
	fails    []int64 // give-up times
	badBytes int
	errs     []error // first few failures, for the report
	spans    []span
}

func (a *app) now() int64 { return int64(time.Since(a.t0)) }

func (a *app) run(stop *atomic.Bool) {
	for !stop.Load() {
		a.runTx(a.gen.Next())
	}
}

func retryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout) || errors.Is(err, lock.ErrCanceled)
}

func (a *app) runTx(t workload.Transaction) {
	first := a.now()
	for attempt := 1; ; attempt++ {
		begin := a.now()
		x := a.peer.Begin()
		id := x.ID()
		ver := versionOf(a.idx, id.Seq)
		err := a.execute(x, ver, t)
		if err == nil {
			cs := a.now()
			err = x.Commit()
			end := a.now()
			if a.traced {
				a.spans = append(a.spans, span{spanCommit, ver, cs, end - cs})
			}
			if err == nil {
				a.txs = append(a.txs, txRec{
					ver: ver, first: first, begin: begin, end: end, commit: end - cs,
					attempts: attempt, ops: append([]op(nil), a.buf...),
				})
				return
			}
		}
		_ = x.Abort() // a failed Commit has already finished the transaction
		if !retryable(err) || attempt == maxAttempts {
			a.fails = append(a.fails, a.now())
			if len(a.errs) < 4 {
				a.errs = append(a.errs, fmt.Errorf("%s after %d attempts: %w", id, attempt, err))
			}
			return
		}
		// Randomized exponential backoff breaks mutual-abort livelock.
		shift := attempt
		if shift > 8 {
			shift = 8
		}
		time.Sleep(time.Duration(a.rng.Int63n(int64(20*time.Microsecond) << shift)))
	}
}

func (a *app) execute(x *core.Tx, ver version, t workload.Transaction) error {
	a.buf = a.buf[:0]
	var tag []byte
	for _, ref := range t.Refs {
		idx := ref.Page*objsPerPage + uint32(ref.Slot)
		obj := a.c.objs[idx]
		var start int64
		if a.traced {
			start = a.now()
		}
		data, err := x.Read(obj)
		if a.traced {
			a.spans = append(a.spans, span{spanRead, ver, start, a.now() - start})
		}
		if err != nil {
			return err
		}
		if a.c.expect != nil {
			// Read-only: every read must return the bytes set-up wrote,
			// so no history is kept.
			if int(idx) >= len(a.c.expect) || string(data) != string(a.c.expect[idx]) {
				a.badBytes++
			}
			continue
		}
		o := op{obj: idx}
		if v, ok := decodeTag(data, len(a.c.clients)); ok {
			o.read = v
		} else {
			a.badBytes++
		}
		if ref.Write {
			if tag == nil {
				tag = encodeTag(a.idx, ver.seq())
			}
			if a.traced {
				start = a.now()
			}
			err := x.Write(obj, tag)
			if a.traced {
				a.spans = append(a.spans, span{spanWrite, ver, start, a.now() - start})
			}
			if err != nil {
				return err
			}
			o.wrote = true
		}
		a.buf = append(a.buf, o)
	}
	return nil
}

// startLoad launches one app goroutine per client peer. The returned
// stop function ends the load after each client's current transaction
// and waits for every app to return.
func startLoad(c *cluster, sp spec, seed int64, traced bool, t0 time.Time) ([]*app, func(), error) {
	apps := make([]*app, len(c.clients))
	for i, p := range c.clients {
		params, err := sp.params(i)
		if err != nil {
			return nil, nil, err
		}
		gen, err := workload.NewGenerator(params, seed*1000+int64(i))
		if err != nil {
			return nil, nil, err
		}
		apps[i] = &app{
			idx: i, peer: p, c: c, gen: gen, traced: traced, t0: t0,
			rng: rand.New(rand.NewSource(seed*1000 + 500 + int64(i))),
		}
	}
	var (
		stopFlag atomic.Bool
		wg       sync.WaitGroup
	)
	for _, a := range apps {
		wg.Add(1)
		go func(a *app) {
			defer wg.Done()
			a.run(&stopFlag)
		}(a)
	}
	return apps, func() { stopFlag.Store(true); wg.Wait() }, nil
}
