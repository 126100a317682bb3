package core

import (
	"sync/atomic"
	"testing"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/storage"
)

// parkAt arms srv's test hook to park the first goroutine reaching point
// on page: parked is closed when it arrives, and it resumes once release
// is closed. Every other arrival passes straight through.
func parkAt(srv *Peer, point string, page storage.ItemID) (parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	srv.testHook = func(pt string, pg storage.ItemID) {
		if pt != point || pg != page || !armed.CompareAndSwap(true, false) {
			return
		}
		close(parked)
		<-release
	}
	return parked, release
}

// serverObject reads an object's bytes from the server buffer.
func serverObject(t *testing.T, srv *Peer, obj storage.ItemID) string {
	t.Helper()
	data, ok := srv.srvPool.ReadObject(obj.PageID(), obj.Slot)
	if !ok {
		t.Fatalf("%v not resident in the server buffer", obj)
	}
	return string(data[:len("new")])
}

// volumeObject reads an object's bytes from the server's stable volume.
func volumeObject(t *testing.T, srv *Peer, obj storage.ItemID) string {
	t.Helper()
	pg, ok := srv.volumes[obj.Vol].PeekPage(obj.PageID())
	if !ok {
		t.Fatalf("%v not on the volume", obj)
	}
	return string(pg.Objects[obj.Slot][:len("new")])
}

// TestServerMissRaceKeepsInstalledObject: two misses on one page race; an
// object installed through the winner's frame while the loser is between
// its disk read and its insert must survive the loser's insert.
func TestServerMissRaceKeepsInstalledObject(t *testing.T) {
	tc := newCluster(t, PSAA, 0, 8)
	srv := tc.srv
	parked, release := parkAt(srv, pointMissRead, pageID(0))

	loser := make(chan *storage.Page)
	go func() {
		pg, err := srv.srvFetchPage(pageID(0), obs.SpanContext{})
		if err != nil {
			t.Error(err)
		}
		loser <- pg
	}()
	<-parked
	// The winner: a redo miss on the same page inserts it and installs.
	srv.installBytes(objID(0, 1), []byte("new"), true, obs.SpanContext{})
	close(release)
	pg := <-loser

	if got := string(pg.Objects[1][:3]); got != "new" {
		t.Errorf("loser's fetch returned %q, want the installed bytes", got)
	}
	if got := serverObject(t, srv, objID(0, 1)); got != "new" {
		t.Errorf("server buffer holds %q after the racing insert, want %q", got, "new")
	}
	if dirty, _ := srv.srvPool.Dirty(pageID(0)); !dirty.Has(1) {
		t.Error("installed object lost its dirty bit")
	}
	if err := srv.LastError(); err != nil {
		t.Fatal(err)
	}
}

// TestServerEvictionVisibleUntilWriteBack: a dirty page evicted from the
// server buffer stays visible until its write-back lands, so a miss in
// between reads the buffer's bytes, not the stale volume copy; an install
// in between revives the page, and both updates reach the volume in
// order.
func TestServerEvictionVisibleUntilWriteBack(t *testing.T) {
	tc := newCluster(t, PSAA, 0, 8, func(c *Config) { c.ServerPoolPages = 1 })
	srv := tc.srv
	srv.installBytes(objID(0, 1), []byte("new"), true, obs.SpanContext{})
	parked, release := parkAt(srv, pointEvicted, pageID(0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Fetching page 1 evicts dirty page 0 and parks before writing it.
		if _, err := srv.srvFetchPage(pageID(1), obs.SpanContext{}); err != nil {
			t.Error(err)
		}
	}()
	<-parked
	if got := volumeObject(t, srv, objID(0, 1)); got == "new" {
		t.Fatal("write-back landed before the hook; the test is vacuous")
	}
	pg, err := srv.srvFetchPage(pageID(0), obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(pg.Objects[1][:3]); got != "new" {
		t.Errorf("miss during write-back read %q, want %q", got, "new")
	}
	srv.installBytes(objID(0, 2), []byte("new"), true, obs.SpanContext{})
	close(release)
	<-done

	if got := volumeObject(t, srv, objID(0, 1)); got != "new" {
		t.Errorf("volume holds %q after the write-back, want %q", got, "new")
	}
	if got := serverObject(t, srv, objID(0, 2)); got != "new" {
		t.Errorf("install during write-back lost: buffer holds %q", got)
	}
	// Evict page 0 again: the second write-back carries the later install.
	for pg := uint32(2); pg < 5; pg++ {
		if _, err := srv.srvFetchPage(pageID(pg), obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, slot := range []uint16{1, 2} {
		if got := volumeObject(t, srv, objID(0, slot)); got != "new" {
			t.Errorf("volume slot %d = %q after the second write-back, want %q", slot, got, "new")
		}
	}
	if err := srv.LastError(); err != nil {
		t.Fatal(err)
	}
}

// TestServerInstallPinsPageUntilWritten: an install fetches its page and
// keeps it pinned until the bytes and dirty bit are in, so an eviction
// pressed in between cannot drop the update.
func TestServerInstallPinsPageUntilWritten(t *testing.T) {
	tc := newCluster(t, PSAA, 0, 8, func(c *Config) { c.ServerPoolPages = 1 })
	srv := tc.srv
	parked, release := parkAt(srv, pointPinned, pageID(0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.installBytes(objID(0, 1), []byte("new"), true, obs.SpanContext{})
	}()
	<-parked
	// A miss on another page wants page 0's only frame.
	if _, err := srv.srvFetchPage(pageID(1), obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-done

	if got := serverObject(t, srv, objID(0, 1)); got != "new" {
		t.Errorf("server buffer holds %q, want the installed bytes", got)
	}
	if dirty, _ := srv.srvPool.Dirty(pageID(0)); !dirty.Has(1) {
		t.Error("installed object is not dirty")
	}
	if err := srv.LastError(); err != nil {
		t.Fatal(err)
	}
}

// TestServerShipRacesWriterCommit: a page ship is parked after reading
// the page's bytes while another client writes and commits a different
// object of the page. The reader's later read of that object must return
// the committed value — the ship registered its copy first, so the
// writer's callback round reached the reader and vetoed the stale bytes.
func TestServerShipRacesWriterCommit(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 8)
	srv, reader, writer := tc.srv, tc.clients[0], tc.clients[1]
	parked, release := parkAt(srv, pointShipped, pageID(3))

	rx := reader.Begin()
	done := make(chan string)
	go func() {
		data, err := rx.Read(objID(3, 0))
		if err != nil {
			t.Error(err)
		}
		done <- string(data)
	}()
	<-parked
	wx := writer.Begin()
	writeVal(t, wx, objID(3, 1), "new")
	mustCommit(t, wx)
	close(release)
	<-done
	if got := readVal(t, rx, objID(3, 1)); got != "new" {
		t.Errorf("reader saw %q after the writer committed %q", got, "new")
	}
	mustCommit(t, rx)
}

// TestAdaptiveGrantRacesShip: a read ship to one client is parked after
// its deescalation check, before it locks or registers a copy, while another
// client's write asks for the page. The writer's callback round finds no
// other copy, yet the adaptive page lock must be refused: granted, it
// would let the writer's later writes on the page skip the callbacks the
// reader's fresh copy needs.
func TestAdaptiveGrantRacesShip(t *testing.T) {
	tc := newCluster(t, PSAA, 2, 8)
	srv, reader, writer := tc.srv, tc.clients[0], tc.clients[1]
	parked, release := parkAt(srv, pointDeesced, pageID(3))

	rx := reader.Begin()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := rx.Read(objID(3, 0)); err != nil {
			t.Error(err)
		}
	}()
	<-parked
	wx := writer.Begin()
	writeVal(t, wx, objID(3, 1), "new")
	close(release)
	<-done
	// The reader now caches the page; the writer's next write on it must
	// call the reader back.
	writeVal(t, wx, objID(3, 2), "new")
	mustCommit(t, wx)
	if got := readVal(t, rx, objID(3, 2)); got != "new" {
		t.Errorf("reader saw %q after the writer committed %q", got, "new")
	}
	mustCommit(t, rx)
}
