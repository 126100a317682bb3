package core

import (
	"sync"

	"adaptivecc/internal/storage"
)

// copyTable is the server-side record of which clients cache which pages
// (paper §4.1). It also tracks, per file, how many pages of the file each
// client caches, so that file-level callbacks know whom to contact; and a
// per-page ship counter used both for purge-race detection (install counts)
// and for detecting serializability-objective violations during hierarchical
// callbacks (§4.3.2).
type copyTable struct {
	mu    sync.Mutex
	pages map[storage.ItemID]*pageCopies
	files map[storage.ItemID]map[string]int
	// shipping counts the requests that may ship a page to a client but
	// have not registered their copy yet (see beginShip). It holds only
	// requests in flight, so scanning it whole is cheap.
	shipping map[shipKey]int
}

type shipKey struct {
	page   storage.ItemID
	client string
}

type pageCopies struct {
	clients map[string]uint64 // client -> install count of its newest copy
	ships   uint64            // total times this page has been shipped
}

func newCopyTable() *copyTable {
	return &copyTable{
		pages:    make(map[storage.ItemID]*pageCopies),
		files:    make(map[storage.ItemID]map[string]int),
		shipping: make(map[shipKey]int),
	}
}

// beginShip announces a request that may ship page to client, before the
// request looks for adaptive holders to deescalate; endShip retracts it
// once the copy is registered (or the request failed). An adaptive grant
// sets the adaptive bit first and then checks othersHold, so of a grant
// and a concurrent ship at least one sees the other: either the ship
// deescalates the new adaptive holder, or the grant is withdrawn.
func (ct *copyTable) beginShip(page storage.ItemID, client string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.shipping[shipKey{page, client}]++
}

func (ct *copyTable) endShip(page storage.ItemID, client string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	k := shipKey{page, client}
	if ct.shipping[k]--; ct.shipping[k] <= 0 {
		delete(ct.shipping, k)
	}
}

// othersHold reports whether a client other than client caches page or
// has a ship of it in progress.
func (ct *copyTable) othersHold(page storage.ItemID, client string) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for k := range ct.shipping {
		if k.page == page && k.client != client {
			return true
		}
	}
	if pc, ok := ct.pages[page]; ok {
		for c := range pc.clients {
			if c != client {
				return true
			}
		}
	}
	return false
}

func fileOf(page storage.ItemID) storage.ItemID {
	return storage.FileItem(page.Vol, page.File)
}

// addCopy records a ship of page to client and returns the install count
// the client must remember for purge notices.
func (ct *copyTable) addCopy(page storage.ItemID, client string) uint64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	pc, ok := ct.pages[page]
	if !ok {
		pc = &pageCopies{clients: make(map[string]uint64)}
		ct.pages[page] = pc
	}
	pc.ships++
	if _, had := pc.clients[client]; !had {
		f := fileOf(page)
		fc, ok := ct.files[f]
		if !ok {
			fc = make(map[string]int)
			ct.files[f] = fc
		}
		fc[client]++
	}
	pc.clients[client] = pc.ships
	if debugOn() {
		debugLog("copytable add", "page", page.String(), "client", client, "install", pc.ships)
	}
	return pc.ships
}

// removeCopy deletes client's entry for page. When install is nonzero the
// removal only happens if it matches the recorded install count — a stale
// purge notice (purge race, §4.2.4) is rejected and false is returned.
// install zero forces removal (callback invalidations).
func (ct *copyTable) removeCopy(page storage.ItemID, client string, install uint64) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	pc, ok := ct.pages[page]
	if !ok {
		return false
	}
	got, had := pc.clients[client]
	if !had {
		return false
	}
	if install != 0 && got != install {
		return false // stale: the client re-fetched the page meanwhile
	}
	// The entry is kept even with no clients so that the ship counter
	// survives (it is an epoch, compared across callback rounds).
	delete(pc.clients, client)
	if debugOn() {
		debugLog("copytable remove", "page", page.String(), "client", client, "install", install, "had", got)
	}
	f := fileOf(page)
	if fc, ok := ct.files[f]; ok {
		fc[client]--
		if fc[client] <= 0 {
			delete(fc, client)
		}
		if len(fc) == 0 {
			delete(ct.files, f)
		}
	}
	return true
}

// clientsOf lists the clients caching page, excluding except.
func (ct *copyTable) clientsOf(page storage.ItemID, except string) []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	pc, ok := ct.pages[page]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(pc.clients))
	for c := range pc.clients {
		if c != except {
			out = append(out, c)
		}
	}
	return out
}

// fileClientsOf lists the clients caching at least one page under scope
// (a file, or a volume covering several files), excluding except.
func (ct *copyTable) fileClientsOf(scope storage.ItemID, except string) []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	seen := make(map[string]bool)
	for f, fc := range ct.files {
		if !scope.Contains(f) {
			continue
		}
		for c := range fc {
			if c != except {
				seen[c] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	return out
}

// hasCopy reports whether client is recorded as caching page.
func (ct *copyTable) hasCopy(page storage.ItemID, client string) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	pc, ok := ct.pages[page]
	if !ok {
		return false
	}
	_, had := pc.clients[client]
	return had
}

// shipCount reports the ship epoch of page, used to detect ships that
// happen during a window where a calling-back transaction had downgraded
// its locks.
func (ct *copyTable) shipCount(page storage.ItemID) uint64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if pc, ok := ct.pages[page]; ok {
		return pc.ships
	}
	return 0
}

// numPages reports the number of pages with at least one cached copy.
func (ct *copyTable) numPages() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	n := 0
	for _, pc := range ct.pages {
		if len(pc.clients) > 0 {
			n++
		}
	}
	return n
}

// removeFileCopies drops every page entry of client under file (a file or
// volume item), after a successful file callback.
func (ct *copyTable) removeFileCopies(file storage.ItemID, client string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for page, pc := range ct.pages {
		if !file.Contains(page) {
			continue
		}
		if _, had := pc.clients[client]; !had {
			continue
		}
		delete(pc.clients, client)
		f := fileOf(page)
		if fc, ok := ct.files[f]; ok {
			fc[client]--
			if fc[client] <= 0 {
				delete(fc, client)
			}
			if len(fc) == 0 {
				delete(ct.files, f)
			}
		}
	}
}

// removeClientCopies drops every page entry of one client (crash reclaim:
// a dead client caches nothing). Returns how many entries were dropped.
func (ct *copyTable) removeClientCopies(client string) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	n := 0
	for _, pc := range ct.pages {
		if _, had := pc.clients[client]; had {
			delete(pc.clients, client)
			n++
		}
	}
	for f, fc := range ct.files {
		if _, had := fc[client]; had {
			delete(fc, client)
			if len(fc) == 0 {
				delete(ct.files, f)
			}
		}
	}
	return n
}

// copiesOf returns the clients caching page (excluding except) together
// with the install counts of their copies at this moment. Callback
// operations capture these counts when sending callbacks so that an
// "invalidated" acknowledgment cannot erase a copy that was re-shipped to
// the same client while the acknowledgment was in flight.
func (ct *copyTable) copiesOf(page storage.ItemID, except string) map[string]uint64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	pc, ok := ct.pages[page]
	if !ok {
		return nil
	}
	out := make(map[string]uint64, len(pc.clients))
	for c, inst := range pc.clients {
		if c != except {
			out[c] = inst
		}
	}
	return out
}
