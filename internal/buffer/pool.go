// Package buffer implements the page-grain buffer pool used on both sides
// of a peer server. The client side extends the classic pool with the
// paper's per-object availability bits (§4.1): an object is locally cached
// iff its page is resident AND its availability bit is set. The pool also
// tracks which objects have been dirtied by active local transactions so
// that incoming page copies can be merged without clobbering local updates.
//
// The server side uses a write-back pool (NewWriteBackPool): a dirty page
// chosen for eviction stays resident, readable and revivable, until its
// caller reports the write-back landed, so no concurrent miss can read the
// stale volume copy in between.
package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"adaptivecc/internal/storage"
)

// Frame describes one resident page. Frames are owned by the pool; all
// access goes through Pool methods under the pool lock.
type frame struct {
	page  *storage.Page
	avail storage.AvailMask
	dirty storage.AvailMask
	pins  int
	elem  *list.Element // position in LRU list; nil while evicting

	// Write-back pools only. evicting marks a dirty victim whose
	// write-back has not landed: still resident, but off the LRU list
	// and outside the capacity count. writing marks a write-back in
	// flight, which keeps the frame from being chosen again until it
	// lands, so a page's write-backs reach the volume in order.
	evicting bool
	writing  bool
}

// Eviction reports a page pushed out of the pool to make room. A dirty
// eviction from a write-back pool must be followed by WriteBackDone.
type Eviction struct {
	ID    storage.ItemID
	Page  *storage.Page
	Dirty storage.AvailMask // nonzero if locally dirty objects were evicted
	Avail storage.AvailMask
}

// Pool is a fixed-capacity page cache with LRU replacement.
type Pool struct {
	mu       sync.Mutex
	capacity int
	frames   map[storage.ItemID]*frame
	lru      *list.List // front = least recently used; holds storage.ItemID

	writeBack bool // dirty victims stay resident until WriteBackDone
	limbo     int  // frames evicting: resident but not counted
}

// NewWriteBackPool returns a pool whose dirty victims stay resident until
// their write-back lands: each dirty Eviction carries a snapshot of the
// page to write, and the frame remains visible to Contains, reads, and
// Pin until WriteBackDone. Pinning or writing the frame meanwhile revives
// it as an ordinary resident page that stays dirty.
func NewWriteBackPool(capacity int) *Pool {
	p := NewPool(capacity)
	p.writeBack = true
	return p
}

// NewPool returns a pool holding at most capacity pages.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		capacity: capacity,
		frames:   make(map[storage.ItemID]*frame, capacity),
		lru:      list.New(),
	}
}

// Capacity reports the configured capacity.
func (p *Pool) Capacity() int { return p.capacity }

// Len reports the number of resident pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Contains reports whether a page is resident.
func (p *Pool) Contains(id storage.ItemID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

func (p *Pool) touchLocked(id storage.ItemID, f *frame) {
	if f.elem != nil {
		p.lru.MoveToBack(f.elem)
	}
}

// reviveLocked returns an evicting frame to ordinary residence: someone
// pinned or wrote it, so its contents are no longer the ones being
// written back. It stays dirty and is written again when next evicted.
func (p *Pool) reviveLocked(id storage.ItemID, f *frame) {
	if f.evicting {
		f.evicting = false
		p.limbo--
		f.elem = p.lru.PushBack(id)
	}
}

// Insert places a page into the pool with the given availability mask,
// evicting LRU unpinned pages as needed. If the page is already resident
// the existing frame is replaced wholesale (callers wanting a merge use
// the object-level methods instead). It returns any evictions performed.
func (p *Pool) Insert(id storage.ItemID, page *storage.Page, avail storage.AvailMask) []Eviction {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		p.reviveLocked(id, f)
		f.page = page
		f.avail = avail
		p.touchLocked(id, f)
		return nil
	}
	ev := p.makeRoomLocked()
	f := &frame{page: page, avail: avail}
	f.elem = p.lru.PushBack(id)
	p.frames[id] = f
	return ev
}

// PinOrInsert pins id's resident frame, or inserts page for it with the
// given availability and pins the new frame. A resident frame always wins
// over page — also one whose write-back is pending — so a miss that lost
// a race with another miss never replaces newer contents with its disk
// copy. The caller must Unpin. It returns any evictions performed.
func (p *Pool) PinOrInsert(id storage.ItemID, page *storage.Page, avail storage.AvailMask) []Eviction {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		p.reviveLocked(id, f)
		f.pins++
		p.touchLocked(id, f)
		return nil
	}
	ev := p.makeRoomLocked()
	f := &frame{page: page, avail: avail, pins: 1}
	f.elem = p.lru.PushBack(id)
	p.frames[id] = f
	return ev
}

// WriteBackDone reports that the write-back of a dirty eviction from a
// write-back pool has landed: an evicting frame leaves the pool, a
// revived one may be evicted again.
func (p *Pool) WriteBackDone(id storage.ItemID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return
	}
	f.writing = false
	if f.evicting {
		f.evicting = false
		p.limbo--
		delete(p.frames, id)
	}
}

func (p *Pool) makeRoomLocked() []Eviction {
	var out []Eviction
	for len(p.frames)-p.limbo >= p.capacity {
		evicted := false
		for e := p.lru.Front(); e != nil; e = e.Next() {
			id, ok := e.Value.(storage.ItemID)
			if !ok {
				continue
			}
			f := p.frames[id]
			if f.pins > 0 || f.writing {
				continue
			}
			p.lru.Remove(e)
			evicted = true
			if p.writeBack && f.dirty != 0 {
				// The snapshot shares object bytes with the frame, which
				// is safe because Page.SetObject replaces a slot's bytes
				// rather than writing into them.
				f.elem = nil
				f.evicting, f.writing = true, true
				p.limbo++
				snap := &storage.Page{ID: f.page.ID, Objects: append([][]byte(nil), f.page.Objects...), LSN: f.page.LSN}
				out = append(out, Eviction{ID: id, Page: snap, Dirty: f.dirty, Avail: f.avail})
				break
			}
			delete(p.frames, id)
			out = append(out, Eviction{ID: id, Page: f.page, Dirty: f.dirty, Avail: f.avail})
			break
		}
		if !evicted {
			// Everything is pinned: allow temporary overflow rather than
			// deadlock; the next insert will retry eviction.
			break
		}
	}
	return out
}

// EvictAll drains the pool, returning every resident page as an eviction,
// pinned pages included — the client-detach path, where no transaction is
// active to hold a pin legitimately. The pool is empty afterwards.
func (p *Pool) EvictAll() []Eviction {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Eviction, 0, len(p.frames))
	for id, f := range p.frames {
		out = append(out, Eviction{ID: id, Page: f.page, Dirty: f.dirty, Avail: f.avail})
	}
	p.frames = make(map[storage.ItemID]*frame, p.capacity)
	p.lru.Init()
	p.limbo = 0
	return out
}

// Remove purges a page (e.g. on callback invalidation), regardless of LRU
// position. It reports whether the page was resident and its dirty mask.
func (p *Pool) Remove(id storage.ItemID) (storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return 0, false
	}
	if f.elem != nil {
		p.lru.Remove(f.elem)
	}
	if f.evicting {
		p.limbo--
	}
	delete(p.frames, id)
	return f.dirty, true
}

// Pin prevents eviction of a resident page; it reports false if absent.
func (p *Pool) Pin(id storage.ItemID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return false
	}
	p.reviveLocked(id, f)
	f.pins++
	p.touchLocked(id, f)
	return true
}

// Unpin releases one pin.
func (p *Pool) Unpin(id storage.ItemID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok && f.pins > 0 {
		f.pins--
	}
}

// Page returns the resident page (shared, not a copy) and its availability.
func (p *Pool) Page(id storage.ItemID) (*storage.Page, storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return nil, 0, false
	}
	p.touchLocked(id, f)
	return f.page, f.avail, true
}

// ClonePage returns a deep copy of the resident page.
func (p *Pool) ClonePage(id storage.ItemID) (*storage.Page, storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return nil, 0, false
	}
	p.touchLocked(id, f)
	return f.page.Clone(), f.avail, true
}

// ReadObject returns a copy of an object's bytes if the page is resident
// and the object is available.
func (p *Pool) ReadObject(id storage.ItemID, slot uint16) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || !f.avail.Has(slot) {
		return nil, false
	}
	p.touchLocked(id, f)
	data, err := f.page.Object(slot)
	if err != nil {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// WriteObject stores data into an available object slot and marks it dirty.
func (p *Pool) WriteObject(id storage.ItemID, slot uint16, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("buffer: page %v not resident", id)
	}
	if !f.avail.Has(slot) {
		return fmt.Errorf("buffer: object %v.%d unavailable", id, slot)
	}
	if err := f.page.SetObject(slot, data); err != nil {
		return err
	}
	p.reviveLocked(id, f)
	f.dirty = f.dirty.With(slot)
	p.touchLocked(id, f)
	return nil
}

// InstallObject overwrites a slot's bytes without touching availability or
// dirty bits. The server uses it during redo.
func (p *Pool) InstallObject(id storage.ItemID, slot uint16, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("buffer: page %v not resident", id)
	}
	p.reviveLocked(id, f)
	p.touchLocked(id, f)
	return f.page.SetObject(slot, data)
}

// Avail reports the availability mask of a resident page.
func (p *Pool) Avail(id storage.ItemID) (storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return 0, false
	}
	return f.avail, true
}

// SetAvail sets or clears one availability bit. It reports false if the
// page is not resident.
func (p *Pool) SetAvail(id storage.ItemID, slot uint16, available bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return false
	}
	if available {
		f.avail = f.avail.With(slot)
	} else {
		f.avail = f.avail.Without(slot)
	}
	return true
}

// Dirty reports the dirty-object mask of a resident page.
func (p *Pool) Dirty(id storage.ItemID) (storage.AvailMask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return 0, false
	}
	return f.dirty, true
}

// SetDirtySlot sets or clears one dirty bit.
func (p *Pool) SetDirtySlot(id storage.ItemID, slot uint16, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return
	}
	if dirty {
		p.reviveLocked(id, f)
		f.dirty = f.dirty.With(slot)
	} else {
		f.dirty = f.dirty.Without(slot)
	}
}

// ClearDirty clears the whole dirty mask of a page (after updates have been
// shipped to the owner).
func (p *Pool) ClearDirty(id storage.ItemID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		f.dirty = 0
	}
}

// Merge incorporates an incoming page copy into a resident frame per the
// paper's §4.2.3 rules, object by object:
//   - objects dirty locally keep their local bytes;
//   - objects already available stay available (a pending callback will
//     invalidate them if needed), keeping local bytes;
//   - other objects take the incoming bytes, and their availability is the
//     incoming proposal unless vetoed (the caller passes the veto set from
//     the callback race table).
//
// If the page is not resident it is inserted with the proposed availability
// minus vetoes. Returns evictions from a fresh insert.
func (p *Pool) Merge(id storage.ItemID, incoming *storage.Page, proposed storage.AvailMask, veto storage.AvailMask) []Eviction {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok {
		p.mu.Unlock()
		return p.Insert(id, incoming, proposed&^veto)
	}
	defer p.mu.Unlock()
	for s := 0; s < incoming.NumObjects(); s++ {
		slot := uint16(s)
		if f.dirty.Has(slot) || f.avail.Has(slot) {
			continue // keep the local copy and state
		}
		data, err := incoming.Object(slot)
		if err != nil {
			continue
		}
		if err := f.page.SetObject(slot, data); err != nil {
			continue
		}
		if proposed.Has(slot) && !veto.Has(slot) {
			f.avail = f.avail.With(slot)
		}
	}
	// The dummy object follows the same rule at the bit level.
	if !f.avail.Has(storage.DummySlot) && proposed.Has(storage.DummySlot) && !veto.Has(storage.DummySlot) {
		f.avail = f.avail.With(storage.DummySlot)
	}
	p.touchLocked(id, f)
	return nil
}

// PagesOf lists resident pages contained in item (a file or volume), used
// by coarse-grain callbacks to purge whole files.
func (p *Pool) PagesOf(item storage.ItemID) []storage.ItemID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []storage.ItemID
	for id := range p.frames {
		if item.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// AllPages lists every resident page ID.
func (p *Pool) AllPages() []storage.ItemID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]storage.ItemID, 0, len(p.frames))
	for id := range p.frames {
		out = append(out, id)
	}
	return out
}
