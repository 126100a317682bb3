package core

import (
	"fmt"
	"time"

	"adaptivecc/internal/buffer"
	"adaptivecc/internal/consistency"
	"adaptivecc/internal/lock"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/placement"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/wal"
)

// serveRequest dispatches one incoming request. It runs in the receiving
// thread's goroutine and is also invoked directly (with from == p.name)
// when a local transaction accesses data this peer owns. sc is the serve
// span for remote requests, or the client operation's span for local
// calls; server-side work (lock waits, callback rounds, disk reads, WAL
// forces) is traced under it.
func (p *Peer) serveRequest(from string, sc obs.SpanContext, body any) (any, error) {
	switch rq := body.(type) {
	case readReq:
		return p.srvRead(from, sc, rq)
	case writeReq:
		return p.srvWrite(from, sc, rq)
	case lockReq:
		return p.srvLock(from, sc, rq)
	case prepareReq:
		return p.srvPrepare(sc, rq)
	case decideReq:
		return p.srvDecide(rq)
	case statusReq:
		return p.srvStatus(rq)
	case finishReq:
		return p.srvFinish(from, sc, rq)
	case releaseReq:
		return p.srvRelease(rq)
	case deescReq:
		return p.clientDeescalate(from, rq)
	default:
		return nil, fmt.Errorf("core: unknown request %T", body)
	}
}

// checkOwns rejects a request for an item this peer does not own with the
// typed misdirection error: a client routing on a stale or corrupt
// placement map must learn its map is wrong, not be silently served from
// the wrong authority.
func (p *Peer) checkOwns(item storage.ItemID) error {
	if p.owns(item) {
		return nil
	}
	return fmt.Errorf("%w: peer %s does not own %v", placement.ErrMisdirected, p.name, item)
}

// srvRead serves a read request: deescalate foreign adaptive locks, lock
// the item on behalf of the requesting transaction, and ship the page.
func (p *Peer) srvRead(from string, sc obs.SpanContext, rq readReq) (any, error) {
	remote := from != p.name
	if remote {
		p.stats.Inc(sim.CtrReadRequests)
	}
	obj := rq.Obj
	pageID := obj.PageID()

	if err := p.checkOwns(obj); err != nil {
		return nil, err
	}
	if remote {
		p.ct.beginShip(pageID, from)
		defer p.ct.endShip(pageID, from)
	}
	if err := p.srvDeescalate(pageID, from, sc); err != nil {
		return nil, err
	}
	p.testPoint(pointDeesced, pageID)
	if err := p.lockGuarded(rq.Tx, obj, lock.SH, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return nil, err
	}
	if !remote {
		// The owner's own transactions read the server buffer directly; no
		// page is shipped and no copy-table entry is made.
		return readResp{}, nil
	}
	if p.policy.TransferUnit() == consistency.UnitObject && !rq.WholePage {
		// OS: ship only the requested object. The copy table still tracks
		// the page so callbacks reach every client caching any of its
		// objects.
		data, err := p.srvObjectBytes(obj, sc)
		if err != nil {
			return nil, err
		}
		install := p.ct.addCopy(pageID, from)
		return readResp{ObjData: data, Install: install}, nil
	}
	page, avail, install, err := p.shipPage(pageID, obj, from, !rq.WholePage, sc)
	if err != nil {
		return nil, err
	}
	if p.obs.Active() {
		p.obs.EmitSpan(obs.EvPageShip, sc.Under(), pageID.String(), 0, from, "read ship")
	}
	return readResp{Page: page, Avail: avail, Install: install}, nil
}

// srvWrite serves a write-permission request: deescalate, lock EX, run the
// callback operation, and decide adaptivity.
func (p *Peer) srvWrite(from string, sc obs.SpanContext, rq writeReq) (any, error) {
	remote := from != p.name
	if remote {
		p.stats.Inc(sim.CtrWriteRequests)
	}
	obj := rq.Obj
	pageID := obj.PageID()

	if err := p.checkOwns(obj); err != nil {
		return nil, err
	}
	if remote && !rq.HavePage {
		p.ct.beginShip(pageID, from)
		defer p.ct.endShip(pageID, from)
	}
	if err := p.srvDeescalate(pageID, from, sc); err != nil {
		return nil, err
	}
	if err := p.lockGuarded(rq.Tx, obj, lock.EX, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return nil, err
	}

	allInvalidated, err := p.runCallbackOp(rq.Tx, obj, pageID, from, sc)
	if err != nil {
		return nil, err
	}

	var resp writeResp
	switch {
	case obj.Level == storage.LevelPage:
		// PS or explicit EX page lock: the page-level EX lock itself is the
		// standing write permission for the whole page.
		resp.Adaptive = true
	case p.policy.EscalateOnWrite(pageID):
		if allInvalidated && !p.foreignObjectLocks(pageID, from, rq.Tx) &&
			p.grantAdaptive(rq.Tx, pageID, from) {
			p.stats.Inc(sim.CtrAdaptiveGrants)
			if p.obs.Active() {
				p.obs.EmitSpan(obs.EvEscalation, sc.Under(), pageID.String(), 0, from, "adaptive page lock granted")
			}
			resp.Adaptive = true
		}
	}

	if remote {
		if !rq.HavePage {
			var err error
			resp.Page, resp.Avail, resp.Install, err = p.shipPage(pageID, obj, from, obj.Level == storage.LevelObject, sc)
			if err != nil {
				return nil, err
			}
			if p.obs.Active() {
				p.obs.EmitSpan(obs.EvPageShip, sc.Under(), pageID.String(), 0, from, "write ship")
			}
		} else if !rq.HaveObj && obj.Level == storage.LevelObject {
			data, err := p.srvObjectBytes(obj, sc)
			if err != nil {
				return nil, err
			}
			resp.ObjData = data
			if p.policy.TransferUnit() == consistency.UnitObject {
				// OS: shipping the object establishes a cached copy.
				resp.Install = p.ct.addCopy(pageID, from)
			}
		}
	}
	return resp, nil
}

// grantAdaptive sets tx's adaptive page lock unless another client
// caches the page or is being shipped it — one that registered after the
// callback round found every other copy invalidated. The bit is set
// before the check, the mirror of beginShip before deescalation.
func (p *Peer) grantAdaptive(tx lock.TxID, pageID storage.ItemID, client string) bool {
	p.locks.SetAdaptive(tx, pageID, true)
	if p.ct.othersHold(pageID, client) {
		p.locks.SetAdaptive(tx, pageID, false)
		return false
	}
	return true
}

// srvLock serves an explicit hierarchical lock request for files, volumes,
// and page IS/IX/SIX/EX modes (explicit SH page locks travel as whole-page
// reads).
func (p *Peer) srvLock(from string, sc obs.SpanContext, rq lockReq) (any, error) {
	if err := p.checkOwns(rq.Item); err != nil {
		return nil, err
	}
	if err := p.lockGuarded(rq.Tx, rq.Item, rq.Mode, lock.Options{Timeout: p.waitTimeout(), Span: sc}); err != nil {
		return nil, err
	}
	switch rq.Item.Level {
	case storage.LevelFile, storage.LevelVolume:
		if rq.Mode == lock.EX {
			if err := p.runFileCallbackOp(rq.Tx, rq.Item, from, sc); err != nil {
				return nil, err
			}
		}
	case storage.LevelPage:
		switch rq.Mode {
		case lock.EX:
			if _, err := p.runCallbackOp(rq.Tx, rq.Item, rq.Item, from, sc); err != nil {
				return nil, err
			}
		case lock.IX, lock.SIX:
			// Clients may hold local-only SH page locks; call back the
			// page's dummy object so they surface and are invalidated
			// (§4.3.2).
			dummy := storage.ObjectItem(rq.Item.Vol, rq.Item.File, rq.Item.Page, storage.DummySlot)
			if err := p.lockGuarded(rq.Tx, dummy, lock.EX, lock.Options{SkipAncestors: true, Timeout: p.waitTimeout(), Span: sc}); err != nil {
				return nil, err
			}
			if _, err := p.runCallbackOp(rq.Tx, dummy, rq.Item, from, sc); err != nil {
				return nil, err
			}
		}
	}
	return lockResp{}, nil
}

// srvPrepare is 2PC phase one at an owner: force the records to the log
// and redo them into the server buffer. For a cross-shard transaction
// (rq.Coord != "") a prepare record is also forced, binding this shard to
// the coordinator's decision until a decide or status answer arrives.
func (p *Peer) srvPrepare(sc obs.SpanContext, rq prepareReq) (any, error) {
	if p.slog == nil {
		return nil, fmt.Errorf("core: peer %s owns no volumes", p.name)
	}
	for _, rec := range rq.Records {
		if err := p.checkOwns(rec.Object); err != nil {
			return nil, err
		}
	}
	p.appendAndRedo(rq.Records, sc)
	if rq.Coord != "" {
		p.slog.Prepare(rq.Tx, rq.Coord)
		p.stats.Inc(sim.Ctr2PCPrepares)
	}
	return prepareResp{}, nil
}

// srvDecide records a cross-shard transaction's fate at this peer, acting
// as coordinator. The decision is immutable once forced: a commit arriving
// after a presumed abort was recorded (or vice versa) is an error reported
// back to the home site.
func (p *Peer) srvDecide(rq decideReq) (any, error) {
	if p.slog == nil {
		return nil, fmt.Errorf("core: peer %s owns no volumes", p.name)
	}
	if err := p.slog.Decide(rq.Tx, rq.Commit); err != nil {
		return nil, err
	}
	return decideResp{}, nil
}

// srvStatus answers a participant's recovery query about a prepared
// transaction coordinated here. Under presumed abort, no recorded decision
// means abort — and that answer is made durable before it is given out.
func (p *Peer) srvStatus(rq statusReq) (any, error) {
	if p.slog == nil {
		return nil, fmt.Errorf("core: peer %s owns no volumes", p.name)
	}
	return statusResp{Commit: p.slog.ResolveStatus(rq.Tx) == wal.DecisionCommit}, nil
}

// srvFinish is 2PC phase two (commit) or an abort at an owner.
func (p *Peer) srvFinish(from string, sc obs.SpanContext, rq finishReq) (any, error) {
	// Decision wins: if this peer coordinated the transaction and durably
	// recorded commit, a late abort (e.g. the home site died after the
	// decide round and a survivor guessed wrong) must not undo it.
	if !rq.Commit && p.slog != nil && p.slog.DecisionOf(rq.Tx) == wal.DecisionCommit {
		rq.Commit = true
	}
	p.markFinished(rq.Tx)
	if rq.Commit {
		if p.slog != nil {
			var start time.Time
			if p.obs.Active() {
				start = time.Now()
			}
			fi := p.slog.CommitForce(rq.Tx)
			if p.cfg.GroupCommit && p.obs.Active() {
				p.emitGroupCommit(sc, rq.Tx.String(), time.Since(start), fi, "commit force")
			}
		}
	} else if p.slog != nil {
		for _, rec := range p.slog.Abort(rq.Tx) {
			p.undoOne(rec)
		}
	}
	p.locks.ReleaseAll(rq.Tx)
	return finishResp{}, nil
}

// srvRelease drops the replicated locks of a transaction that finished at
// its home without ever spreading here.
func (p *Peer) srvRelease(rq releaseReq) (any, error) {
	p.markFinished(rq.Tx)
	p.locks.ReleaseAll(rq.Tx)
	return releaseResp{}, nil
}

// srvDeescalate tears down adaptive page locks held by transactions from
// clients other than requester (paper §4.1.2): the holding client reports
// the EX object locks of its local transactions, which are replicated here
// before the requester's operation proceeds.
func (p *Peer) srvDeescalate(pageID storage.ItemID, requester string, sc obs.SpanContext) error {
	holders := p.locks.AdaptiveHolders(pageID)
	client := ""
	for _, t := range holders {
		if t.Site != requester {
			client = t.Site
			break
		}
	}
	if client == "" {
		return nil
	}
	p.stats.Inc(sim.CtrDeescalations)
	p.policy.Note(consistency.EvDeescalated, pageID)
	if p.obs.Active() {
		p.obs.EmitSpan(obs.EvDeescalation, sc.Under(), pageID.String(), 0, client, "adaptive lock torn down")
	}
	var (
		body any
		err  error
	)
	if client == p.name {
		body, err = p.clientDeescalate(p.name, deescReq{Page: pageID})
	} else {
		body, err = p.call(client, sc, deescReq{Page: pageID})
	}
	if err != nil {
		return err
	}
	resp, ok := body.(deescResp)
	if !ok {
		return fmt.Errorf("core: bad deescalation reply %T", body)
	}
	for _, r := range resp.Locks {
		p.forceGrantReplica(r)
	}
	for _, t := range holders {
		if t.Site != requester {
			p.locks.SetAdaptive(t, pageID, false)
		}
	}
	return nil
}

// foreignObjectLocks reports whether any transaction homed at a client
// other than `client` holds an object-level lock under pageID. An adaptive
// page lock must not be granted in that case.
func (p *Peer) foreignObjectLocks(pageID storage.ItemID, client string, self lock.TxID) bool {
	foreign := false
	p.locks.ForEachLockWithin(pageID, func(info lock.Info) bool {
		if info.Item.Level != storage.LevelObject {
			return true
		}
		if info.Tx != self && info.Tx.Site != client {
			foreign = true
			return false
		}
		return true
	})
	return foreign
}

// unavailFor computes the unavailable-object mask of §4.2.3: before
// shipping page P to a client, an object X in P is marked unavailable if
// (1) X is not the requested object, and either (2) X is EX-locked by a
// transaction homed at another client, or (3) a callback operation on X by
// such a transaction is pending.
func (p *Peer) unavailFor(pageID, reqObj storage.ItemID, client string) storage.AvailMask {
	var mask storage.AvailMask
	p.locks.ForEachLockWithin(pageID, func(info lock.Info) bool {
		if info.Item.Level != storage.LevelObject || info.Item == reqObj {
			return true
		}
		if info.Mode == lock.EX && info.Tx.Site != client {
			mask = mask.With(info.Item.Slot)
		}
		return true
	})
	for obj, t := range p.pendingCBSnapshot() {
		if pageID.Contains(obj) && obj != reqObj && t.Site != client {
			mask = mask.With(obj.Slot)
		}
	}
	return mask
}

// shipPage copies a page out of the server buffer for client, with its
// install count and availability mask (object grain: §4.2.3 relative to
// reqObj; otherwise every object). The order is what keeps the copy
// coherent. The copy is registered first, so every callback round that
// starts later reaches the client, whose race table vetoes what the reply
// would resurrect (§4.2.4). The mask is taken next: a writer whose round
// started before the registration still holds its EX lock then — or has
// finished, and the bytes read last carry its update.
func (p *Peer) shipPage(pageID, reqObj storage.ItemID, client string, objectGrain bool, sc obs.SpanContext) (*storage.Page, storage.AvailMask, uint64, error) {
	install := p.ct.addCopy(pageID, client)
	var unavail storage.AvailMask
	if objectGrain {
		unavail = p.unavailFor(pageID, reqObj, client)
	}
	page, err := p.srvFetchPage(pageID, sc)
	if err != nil {
		p.ct.removeCopy(pageID, client, install)
		return nil, 0, 0, err
	}
	p.testPoint(pointShipped, pageID)
	return page, storage.AllAvailable(page.NumObjects()) &^ unavail, install, nil
}

// srvFetchPage returns a deep copy of a page from the server buffer,
// reading it from disk on a miss (traced as a disk-io leaf under sc).
func (p *Peer) srvFetchPage(pageID storage.ItemID, sc obs.SpanContext) (*storage.Page, error) {
	if pg, _, ok := p.srvPool.ClonePage(pageID); ok {
		return pg, nil
	}
	if _, err := p.srvPinPage(pageID, sc); err != nil {
		return nil, err
	}
	pg, _, _ := p.srvPool.ClonePage(pageID)
	p.srvPool.Unpin(pageID)
	return pg, nil
}

// Interleaving points of the server buffer paths, where a test can park
// one goroutine to force a race deterministically.
const (
	pointMissRead = "miss-read" // a miss read the disk copy, not yet inserted
	pointEvicted  = "evicted"   // a dirty page left the LRU, not yet written back
	pointPinned   = "pinned"    // an install pinned its page, not yet wrote it
	pointDeesced  = "deesced"   // a read passed its deescalation check, not yet locked
	pointShipped  = "shipped"   // a page ship read its bytes, reply not yet sent
)

func (p *Peer) testPoint(point string, page storage.ItemID) {
	if h := p.testHook; h != nil {
		h(point, page)
	}
}

// srvPinPage makes a page resident in the server buffer and pins it,
// reading it from disk on a miss; missed reports that read. The caller
// must Unpin. A concurrent miss on the same page that inserted first wins
// (PinOrInsert keeps the resident frame and whatever was installed into
// it), and a dirty page being written back is still resident, so a miss
// never reads a volume copy older than the buffer's.
func (p *Peer) srvPinPage(pageID storage.ItemID, sc obs.SpanContext) (missed bool, err error) {
	if p.srvPool.Pin(pageID) {
		return false, nil
	}
	vol, ok := p.volumes[pageID.Vol]
	if !ok {
		return false, fmt.Errorf("core: peer %s does not own %v", p.name, pageID)
	}
	var ioStart time.Time
	if p.obs.Active() {
		ioStart = time.Now()
	}
	pg, err := vol.ReadPage(pageID)
	if p.obs.Active() {
		d := time.Since(ioStart)
		p.obs.Observe(obs.HistDiskIO, d)
		p.obs.EmitSpan(obs.EvDiskIO, sc.Under(), pageID.String(), d, "", "page read")
	}
	if err != nil {
		return false, err
	}
	p.testPoint(pointMissRead, pageID)
	evs := p.srvPool.PinOrInsert(pageID, pg, storage.AllAvailable(pg.NumObjects()))
	p.writeBackEvictions(evs)
	return true, nil
}

// srvObjectBytes returns the current bytes of an owned object.
func (p *Peer) srvObjectBytes(obj storage.ItemID, sc obs.SpanContext) ([]byte, error) {
	pageID := obj.PageID()
	if data, ok := p.srvPool.ReadObject(pageID, obj.Slot); ok {
		return data, nil
	}
	if _, err := p.srvFetchPage(pageID, sc); err != nil {
		return nil, err
	}
	data, ok := p.srvPool.ReadObject(pageID, obj.Slot)
	if !ok {
		return nil, fmt.Errorf("core: object %v unreadable after fetch", obj)
	}
	return data, nil
}

// writeBackEvictions flushes dirty pages evicted from the server buffer to
// their volumes; each stays resident until its write-back lands.
// Failures are counted and retained for the harness's end-of-run health
// check rather than silently dropped.
func (p *Peer) writeBackEvictions(evs []buffer.Eviction) {
	for _, ev := range evs {
		if ev.Dirty == 0 {
			continue
		}
		p.testPoint(pointEvicted, ev.ID)
		p.writeBack(ev)
		p.srvPool.WriteBackDone(ev.ID)
	}
}

// writeBack writes one dirty eviction to its volume.
func (p *Peer) writeBack(ev buffer.Eviction) {
	vol, ok := p.volumes[ev.ID.Vol]
	if !ok {
		p.stats.Inc(sim.CtrWriteBackErrors)
		p.noteError(fmt.Errorf("core: %s evicted dirty page %v of unowned volume", p.name, ev.ID))
		return
	}
	var ioStart time.Time
	if p.obs.Active() {
		ioStart = time.Now()
	}
	err := vol.WritePage(ev.Page)
	if p.obs.Active() {
		p.obs.Observe(obs.HistDiskIO, time.Since(ioStart))
	}
	if err != nil {
		p.stats.Inc(sim.CtrWriteBackErrors)
		p.noteError(fmt.Errorf("core: %s write-back of %v: %w", p.name, ev.ID, err))
	}
}

// appendAndRedo forces records to the stable log and redoes them into the
// server buffer (redo-at-server, §3.3). The WAL force is traced as a leaf
// under sc, falling back to the records' transaction when the caller has
// no span (background purge-notice redo).
func (p *Peer) appendAndRedo(recs []wal.Record, sc obs.SpanContext) {
	if p.slog == nil || len(recs) == 0 {
		return
	}
	var ioStart time.Time
	if p.obs.Active() {
		ioStart = time.Now()
	}
	_, fi := p.slog.AppendForce(recs)
	if p.obs.Active() {
		d := time.Since(ioStart)
		p.obs.Observe(obs.HistDiskIO, d)
		wsc := sc.Under()
		if wsc.Trace == "" {
			wsc.Trace = recs[0].Tx.String()
		}
		if p.cfg.GroupCommit {
			// With group commit on, the force is traced as the shared
			// group-commit leaf (same WAL phase bucket) instead of a plain
			// WAL append: the cohort note identifies the batched committers
			// that shared the disk write.
			p.emitGroupCommitCtx(wsc, d, fi, fmt.Sprintf("%d records forced", len(recs)))
		} else {
			p.obs.EmitSpan(obs.EvWALAppend, wsc, recs[0].Object.String(), d, "",
				fmt.Sprintf("%d records forced", len(recs)))
		}
	}
	for _, r := range recs {
		p.installBytes(r.Object, r.After, true, sc)
	}
}

// emitGroupCommit traces one group-commit force as a leaf under sc,
// falling back to tx for the trace identity when the caller has no span.
func (p *Peer) emitGroupCommit(sc obs.SpanContext, tx string, d time.Duration, fi wal.ForceInfo, what string) {
	wsc := sc.Under()
	if wsc.Trace == "" {
		wsc.Trace = tx
	}
	p.emitGroupCommitCtx(wsc, d, fi, what)
}

// emitGroupCommitCtx emits the group-commit leaf span: one per batched
// committer, all naming the shared disk write through the cohort note.
func (p *Peer) emitGroupCommitCtx(wsc obs.SpanContext, d time.Duration, fi wal.ForceInfo, what string) {
	role := "joined"
	if fi.Led {
		role = "led"
	}
	p.obs.EmitSpan(obs.EvGroupCommit, wsc, "", d, "",
		fmt.Sprintf("%s: %s cohort of %d", what, role, fi.Cohort))
}

// undoOne applies a record's before-image during abort processing.
func (p *Peer) undoOne(rec wal.Record) {
	p.installBytes(rec.Object, rec.Before, false, obs.SpanContext{})
}

// installBytes writes object bytes into the server buffer, fetching the
// page from disk if non-resident. Redo-time fetches are the extra reads
// the paper attributes to the redo-at-server scheme. The page stays
// pinned from fetch to install, and the bytes and their dirty bit land in
// one step, so no eviction can slip in between and drop the update.
func (p *Peer) installBytes(obj storage.ItemID, data []byte, redo bool, sc obs.SpanContext) {
	pageID := obj.PageID()
	missed, err := p.srvPinPage(pageID, sc)
	if missed && redo {
		p.stats.Inc(sim.CtrRedoPageReads)
	}
	if err != nil {
		p.noteError(fmt.Errorf("core: %s install into %v: %w", p.name, obj, err))
		return
	}
	p.testPoint(pointPinned, pageID)
	err = p.srvPool.WriteObject(pageID, obj.Slot, data)
	p.srvPool.Unpin(pageID)
	if err != nil {
		p.noteError(fmt.Errorf("core: %s install into %v: %w", p.name, obj, err))
	}
}
