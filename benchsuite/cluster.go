package main

import (
	"fmt"
	"math/rand"
	"time"

	"adaptivecc/internal/core"
	"adaptivecc/internal/obs"
	"adaptivecc/internal/shoreclient"
	"adaptivecc/internal/sim"
	"adaptivecc/internal/storage"
	"adaptivecc/internal/transport"
	"adaptivecc/internal/workload"
)

// Database and cache geometry shared by every workload: a 1200-page
// database of 20 objects per page, 300-page client caches (a quarter of
// the database) and a 600-page server pool.
const (
	dbPages     = 1200
	objsPerPage = 20
	pageSize    = 4096
	objSize     = pageSize / objsPerPage
	clientPool  = 300
	serverPool  = 600
	// tcpPaths keeps the loopback fleet at two sockets per peer pair, one
	// per core of the machine the figures were taken on.
	tcpPaths = 2
	// traceCap is the per-peer trace ring size of every system the
	// benchmark configures itself (the shoreclient side keeps the library
	// default). The rings keep the tail of a traced window: enough commits
	// for the critical-path averages and a Perfetto file of tens of MB.
	// Histograms cover the whole window; ring overflow is reported as
	// obs.dropped_events.
	traceCap = 1 << 15
)

// spec is one workload: who runs it on which fabric, and the reference
// strings each client draws.
type spec struct {
	name    string
	clients int
	tcp     bool
	// readSet > 0 marks a read-only workload over pages [0, readSet),
	// which set-up fills with seeded bytes that every read must return.
	readSet uint32
	params  func(client int) (workload.Params, error)
}

var specs = []spec{
	{
		// The paper's Figure-6 point: each client's 240-page hot range plus
		// the cold remainder overflows its 300-page cache.
		name: "hotcold-sim", clients: 2,
		params: func(i int) (workload.Params, error) {
			return workload.Spec(workload.HotCold, i, 2, dbPages, false, 0.2, objsPerPage)
		},
	},
	{
		// Both clients read one shared 200-page set that fits each cache:
		// after warm-up no message leaves a client.
		name: "cached-read", clients: 2, readSet: 200,
		params: func(int) (workload.Params, error) {
			return workload.Params{
				TransSize: 30, PageLocalityMin: 8, PageLocalityMax: 16,
				ColdLo: 0, ColdHi: 200, ObjectsPerPage: objsPerPage,
			}, nil
		},
	},
	{
		// One client over real loopback sockets: with a second client the
		// abort count swings too far between runs to compare them.
		name: "uniform-tcp", clients: 1, tcp: true,
		params: func(i int) (workload.Params, error) {
			p, err := workload.Spec(workload.Uniform, i, 1, dbPages, false, 0.2, objsPerPage)
			p.TransSize = 8
			return p, err
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// cluster is one built deployment: the systems whose counters and obs sets
// a run reads, the server and client peers, and the object directory the
// load resolves references through.
type cluster struct {
	systems []*core.System
	servers []*core.Peer
	clients []*core.Peer
	vol     *storage.Volume
	objs    []storage.ItemID // global object index -> id
	expect  [][]byte         // read-set workloads: bytes present at set-up
	close   func()
}

func (c *cluster) obsSets() []*obs.Set {
	var out []*obs.Set
	for _, s := range c.systems {
		if set := s.Obs(); set != nil {
			out = append(out, set)
		}
	}
	return out
}

// setObs turns every trace ring and histogram of the cluster on or off;
// a traced run keeps them off through warm-up so the rings hold only the
// measured window.
func (c *cluster) setObs(on bool) {
	for _, set := range c.obsSets() {
		for _, r := range set.Registries() {
			r.SetEnabled(on)
		}
	}
}

func (c *cluster) counters() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range c.systems {
		for k, v := range s.Stats().Snapshot() {
			out[k] += v
		}
	}
	return out
}

func obsConfig(traced bool) obs.Config {
	return obs.Config{Enabled: traced, TraceCap: traceCap}
}

// build sets up a workload's deployment. Every workload runs PS-AA with
// zero simulated costs, so no modelled sleep runs and the figures measure
// the code.
func build(sp spec, seed int64, traced bool) (*cluster, error) {
	var (
		c   *cluster
		err error
	)
	if sp.tcp {
		c, err = buildTCP(sp, seed, traced)
	} else {
		c, err = buildSim(sp, seed, traced)
	}
	if err != nil {
		return nil, err
	}
	c.objs = make([]storage.ItemID, dbPages*objsPerPage)
	dir := c.systems[0].Directory()
	for i := range c.objs {
		if c.objs[i], err = dir.LookupObject(uint32(i/objsPerPage), uint16(i%objsPerPage)); err != nil {
			c.close()
			return nil, err
		}
	}
	if sp.readSet > 0 {
		if err := c.fillReadSet(sp.readSet, seed); err != nil {
			c.close()
			return nil, err
		}
	}
	if sp.tcp {
		// The client fabric dials on first send: one read-only transaction
		// opens the sockets, so connecting counts as set-up.
		x := c.clients[0].Begin()
		_, err := x.Read(c.objs[0])
		if err == nil {
			err = x.Commit()
		}
		if err != nil {
			_ = x.Abort()
			c.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
	}
	return c, nil
}

func newVolume(sys *core.System, costs sim.CostTable) (*storage.Volume, error) {
	vol := storage.NewVolume(1, costs, sys.Stats())
	if _, err := vol.CreateFile(1, 0, dbPages, objsPerPage, objSize); err != nil {
		return nil, err
	}
	sys.Directory().AddExtent(1, 1, 0, dbPages)
	return vol, nil
}

func buildSim(sp spec, seed int64, traced bool) (*cluster, error) {
	costs := sim.DefaultCosts(0)
	sys := core.NewSystem(core.Config{
		Protocol:        core.PSAA,
		Costs:           costs,
		ObjectsPerPage:  objsPerPage,
		ObjectSize:      objSize,
		ClientPoolPages: clientPool,
		ServerPoolPages: serverPool,
		Seed:            seed,
		UseTimeouts:     true,
		AdaptiveTimeout: true,
		Obs:             obsConfig(traced),
	})
	c := &cluster{systems: []*core.System{sys}, close: sys.Close}
	vol, err := newVolume(sys, costs)
	if err != nil {
		c.close()
		return nil, err
	}
	c.vol = vol
	srv, err := sys.AddPeer("srv", vol)
	if err != nil {
		c.close()
		return nil, err
	}
	c.servers = []*core.Peer{srv}
	for i := 0; i < sp.clients; i++ {
		p, err := sys.AddPeer(fmt.Sprintf("c%d", i+1))
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, p)
	}
	return c, nil
}

// buildTCP starts a page server configured as cmd/shored configures one,
// and connects the clients to it through internal/shoreclient.
func buildTCP(sp spec, seed int64, traced bool) (*cluster, error) {
	costs := sim.DefaultCosts(0)
	srvSys, err := core.NewSystemFabric(core.Config{
		Protocol:         core.PSAA,
		Costs:            costs,
		ObjectsPerPage:   objsPerPage,
		ObjectSize:       objSize,
		ServerPoolPages:  serverPool,
		ClientPoolPages:  64,
		NumPaths:         tcpPaths,
		Seed:             seed,
		UseTimeouts:      true,
		AdaptiveTimeout:  false,
		FixedTimeout:     5 * time.Second,
		RPCTimeout:       500 * time.Millisecond,
		DeadClientStalls: 3,
		Obs:              obsConfig(traced),
		Transport:        transport.TCPFactory(transport.TCPOptions{ListenAddr: "127.0.0.1:0"}),
	})
	if err != nil {
		return nil, err
	}
	vol, err := newVolume(srvSys, costs)
	if err != nil {
		srvSys.Close()
		return nil, err
	}
	srv, err := srvSys.AddPeer("srv", vol)
	if err != nil {
		srvSys.Close()
		return nil, err
	}
	cli, err := shoreclient.Connect(shoreclient.Options{
		Addr:            srvSys.Net().(*transport.TCP).Addr(),
		Protocol:        core.PSAA,
		DBPages:         dbPages,
		ObjectsPerPage:  objsPerPage,
		PageSize:        pageSize,
		ClientPoolPages: clientPool,
		NumPaths:        tcpPaths,
		Seed:            seed,
		Obs:             traced,
	})
	if err != nil {
		srvSys.Close()
		return nil, err
	}
	c := &cluster{
		systems: []*core.System{cli.System(), srvSys},
		servers: []*core.Peer{srv},
		vol:     vol,
		close: func() {
			cli.Close()
			srvSys.Close()
			srv.ForceWAL()
		},
	}
	for i := 0; i < sp.clients; i++ {
		p, err := cli.AddPeer(fmt.Sprintf("c%d", i+1))
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, p)
	}
	return c, nil
}

// fillReadSet writes seeded bytes into every object of pages [0, n) on the
// volume and keeps a copy for the output check.
func (c *cluster) fillReadSet(n uint32, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	c.expect = make([][]byte, int(n)*objsPerPage)
	for page := uint32(0); page < n; page++ {
		pg, ok := c.vol.PeekPage(c.objs[int(page)*objsPerPage].PageID())
		if !ok {
			return fmt.Errorf("read set: page %d missing", page)
		}
		for slot := range pg.Objects {
			b := make([]byte, objSize)
			rng.Read(b)
			pg.Objects[slot] = b
			c.expect[int(page)*objsPerPage+slot] = append([]byte(nil), b...)
		}
		if err := c.vol.WritePage(pg); err != nil {
			return err
		}
	}
	return nil
}
