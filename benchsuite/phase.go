package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/sim"
)

// phase is one closed-loop load on one cluster: a warm-up, a measured
// window [ws, we) (nanoseconds since t0), and what was read at its edges.
type phase struct {
	c      *cluster
	t0     time.Time
	ws, we int64
	apps   []*app

	counters map[string]int64 // window deltas, summed over the cluster's systems
	hists    [obs.NumHists]obs.HistSnapshot
	events   []obs.Event // program trace events of the window, At relative to t0
	dropped  uint64      // trace events lost to ring overflow in the window
	rt       [numRT]float64
	peakRSS  float64 // MB
	problems []string
}

func (p *phase) seconds() float64 { return float64(p.we-p.ws) / 1e9 }

// windowTxs returns the transactions whose commit returned in the window.
func (p *phase) windowTxs() []txRec {
	var out []txRec
	for _, a := range p.apps {
		for _, t := range a.txs {
			if t.end >= p.ws && t.end < p.we {
				out = append(out, t)
			}
		}
	}
	return out
}

// windowFails counts transactions given up on in the window.
func (p *phase) windowFails() int {
	n := 0
	for _, a := range p.apps {
		for _, at := range a.fails {
			if at >= p.ws && at < p.we {
				n++
			}
		}
	}
	return n
}

// runPhase drives the cluster for warm-up plus window, stops the load,
// runs the output checks and shuts the cluster down. Check failures are
// collected in problems; an error means the run itself broke.
func runPhase(c *cluster, sp spec, seed int64, warm, window time.Duration, traced bool) (*phase, error) {
	p := &phase{c: c, t0: time.Now()}
	if traced {
		c.setObs(false)
	}
	commitsBefore := c.counters()[sim.CtrCommits]
	runtime.GC() // every round starts from the same clean heap
	apps, stop, err := startLoad(c, sp, seed, traced, p.t0)
	if err != nil {
		c.close()
		return nil, err
	}
	p.apps = apps
	time.Sleep(warm)

	if traced {
		c.setObs(true)
	}
	histsBefore := mergedHists(c)
	droppedBefore := dropped(c)
	before := c.counters()
	rtBefore := readRuntime()
	rss := startRSS()
	p.ws = int64(time.Since(p.t0))
	time.Sleep(window)
	p.we = int64(time.Since(p.t0))
	after := c.counters()
	rtAfter := readRuntime()
	p.peakRSS = rss()
	p.hists = mergedHists(c)
	if traced {
		c.setObs(false)
	}
	stop()

	p.counters = make(map[string]int64, len(after))
	for k, v := range after {
		p.counters[k] = v - before[k]
	}
	for i := range rtAfter {
		p.rt[i] = rtAfter[i] - rtBefore[i]
	}
	if traced {
		for i := range p.hists {
			p.hists[i].Sub(histsBefore[i])
		}
		p.dropped = dropped(c) - droppedBefore
		for _, set := range c.obsSets() {
			off := set.Epoch().Sub(p.t0)
			for _, ev := range set.TraceEvents() {
				ev.At += off
				p.events = append(p.events, ev)
			}
		}
	}

	p.check(commitsBefore)
	c.close()
	for _, srv := range c.servers {
		if n := srv.PreparedUndecided(); n != 0 {
			p.fail("server %s holds %d prepared-undecided transactions after close", srv.Name(), n)
		}
	}
	return p, nil
}

// check runs the output checks that need the live cluster.
func (p *phase) check(commitsBefore int64) {
	c := p.c
	var all []txRec
	for _, a := range p.apps {
		all = append(all, a.txs...)
		if a.badBytes > 0 {
			p.fail("client c%d: %d reads returned wrong bytes", a.idx+1, a.badBytes)
		}
		for _, err := range a.errs {
			fmt.Fprintf(os.Stderr, "benchsuite: c%d gave up on %v\n", a.idx+1, err)
		}
	}
	if err := checkPeers(append(c.servers, c.clients...)); err != nil {
		p.fail("%v", err)
	}
	if got := c.counters()[sim.CtrCommits] - commitsBefore; got != int64(len(all)) {
		p.fail("commits counter moved by %d, the load committed %d", got, len(all))
	}
	if c.expect == nil {
		if err := checkHistory(all); err != nil {
			p.fail("history: %v", err)
		} else if err := checkFinalState(c, all); err != nil {
			p.fail("final state: %v", err)
		}
	}
}

func (p *phase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func mergedHists(c *cluster) [obs.NumHists]obs.HistSnapshot {
	var out [obs.NumHists]obs.HistSnapshot
	for _, set := range c.obsSets() {
		all := set.MergedAll()
		for i := range out {
			out[i].Merge(all[i])
		}
	}
	return out
}

func dropped(c *cluster) uint64 {
	var n uint64
	for _, set := range c.obsSets() {
		n += set.DroppedEvents()
	}
	return n
}

// Go runtime readings taken at the window edges.
const (
	rtAllocBytes = iota
	rtAllocObjects
	rtGCCPU
	rtTotalCPU
	rtIdleCPU
	numRT
)

var rtNames = [numRT]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() [numRT]float64 {
	samples := make([]metrics.Sample, numRT)
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out [numRT]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// startRSS samples the process's resident set every 10ms until the
// returned function is called, which reports the peak in MB.
func startRSS() func() float64 {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		max := residentMB()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if v := residentMB(); v > max {
					max = v
				}
			case <-done:
				if v := residentMB(); v > max {
					max = v
				}
				peak <- max
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// residentMB reads VmRSS from /proc/self/status; 0 where it is unavailable.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmRSS:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
