// Command benchsuite is the repository's end-to-end and per-layer
// benchmark. It drives closed-loop workloads through the client API
// (core.Peer.Begin, Tx.Read/Write/Commit/Abort), checks every run's output,
// and prints one JSON result line last. See README.md in this directory.
//
//	bash benchsuite/run.sh --workload hotcold-sim --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"adaptivecc/internal/obs"
	"adaptivecc/internal/obs/critpath"
	"adaptivecc/internal/sim"
)

// An end-to-end run splits its window into rounds, each on a freshly built
// cluster, and reports throughput, the p50s and peak RSS as medians over
// the rounds: one round's throughput can sit 15% off the next one's, so no
// single round, or noisy neighbour during it, moves a figure. The p99s pool
// the rounds' samples. setup_s is the median over the rounds' builds plus
// extraSetups more, each a few milliseconds.
const (
	rounds      = 15
	extraSetups = 40
	// warmup precedes every measured window: long enough for the caches
	// to fill and the adaptive lock timeout to settle.
	warmup = time.Second
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload: hotcold-sim, cached-read or uniform-tcp")
		seed    = fs.Int64("seed", 1, "workload seed (1 for development, 2 held out for checking claims)")
		seconds = fs.Float64("seconds", 20, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run, with a Perfetto trace in .bench_out/<workload>.trace.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*wl)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchsuite: need --workload (hotcold-sim, cached-read, uniform-tcp), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	// A hung run must still end: give up well after the rounds' warm-ups,
	// windows and checks should have finished (about window + 30 s).
	limit := window + 2*time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchsuite: run did not finish within %v\n", limit)
		os.Exit(1)
	})
	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(sp, *seed, window)
	} else {
		res, err = perLayer(sp, *seed, window, filepath.Join(".bench_out", sp.name+".trace.json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	// A run whose output check failed still completed: it reports
	// "correct": false, names each failed check on stderr, and exits 0.
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "benchsuite: output check failed:", p)
	}
	line, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	attempted, failed int
	metrics           []metric
	problems          []string
}

func (r *result) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, v})
	fmt.Printf("%-36s %14.4f %s\n", name, v, unit)
}

func (r *result) json() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sorted(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd measures the user-visible metrics with tracing off.
func endToEnd(sp spec, seed int64, window time.Duration) (result, error) {
	var (
		res                        result
		setups                     []float64
		tps, txP50, commitP50, rss []float64 // per round
		lat, commit                []int64   // pooled over rounds, for the p99s
	)
	timedBuild := func() (*cluster, error) {
		// Set-up in a fresh process pays no collector debt; neither does
		// a timed build here.
		runtime.GC()
		start := time.Now()
		c, err := build(sp, seed, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return c, nil
	}
	for i := 0; i < extraSetups; i++ {
		c, err := timedBuild()
		if err != nil {
			return res, err
		}
		c.close()
	}
	for r := 0; r < rounds; r++ {
		c, err := timedBuild()
		if err != nil {
			return res, err
		}
		p, err := runPhase(c, sp, seed, warmup, window/rounds, false)
		if err != nil {
			return res, err
		}
		res.problems = append(res.problems, p.problems...)
		txs := p.windowTxs()
		fails := p.windowFails()
		res.failed += fails
		res.attempted += len(txs) + fails
		rl := make([]int64, len(txs))
		rc := make([]int64, len(txs))
		for i, t := range txs {
			rl[i] = t.end - t.first
			rc[i] = t.commit
		}
		lat = append(lat, rl...)
		commit = append(commit, rc...)
		tps = append(tps, float64(len(txs))/p.seconds())
		txP50 = append(txP50, quantile(sorted(rl), 0.50)/1e6)
		commitP50 = append(commitP50, quantile(sorted(rc), 0.50)/1e3)
		rss = append(rss, p.peakRSS)
		fmt.Printf("round %d: %.2fs window, %d committed, %.1f tx/s, %d given up\n",
			r+1, p.seconds(), len(txs), tps[r], fails)
	}
	fmt.Printf("workload %s seed %d: medians over %d rounds; p99s over %d pooled samples\n",
		sp.name, seed, rounds, len(lat))
	fmt.Printf("%-36s %14.4f ratio (%d of %d)\n", "failed_frac", ratio(res.failed, res.attempted), res.failed, res.attempted)
	res.add("tx_per_s", "tx/s", median(tps))
	res.add("tx_p50_ms", "ms", median(txP50))
	res.add("tx_p99_ms", "ms", quantile(sorted(lat), 0.99)/1e6)
	res.add("commit_p50_us", "us", median(commitP50))
	res.add("commit_p99_us", "us", quantile(sorted(commit), 0.99)/1e3)
	res.add("peak_rss_mb", "MB", median(rss))
	res.add("setup_s", "s", median(setups))
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer runs the workload twice, each half the window: untraced for the
// counter, runtime and baseline-throughput figures, then traced for the
// latency histograms, benchmark-side Tx spans and the critical path.
func perLayer(sp spec, seed int64, window time.Duration, traceOut string) (result, error) {
	var res result
	half := window / 2
	phases := make([]*phase, 2)
	for i, traced := range []bool{false, true} {
		c, err := build(sp, seed, traced)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		if phases[i], err = runPhase(c, sp, seed, warmup, half, traced); err != nil {
			return res, err
		}
		res.problems = append(res.problems, phases[i].problems...)
		res.failed += phases[i].windowFails()
		res.attempted += len(phases[i].windowTxs()) + phases[i].windowFails()
	}
	u, t := phases[0], phases[1]
	fmt.Printf("workload %s seed %d: traced and untraced windows of %.2fs\n", sp.name, seed, u.seconds())

	// Counter and runtime figures come from the untraced window.
	ctr := u.counters
	commits := float64(ctr[sim.CtrCommits])
	per := func(name string) float64 { return float64(ctr[name]) / commits }
	uTxs := u.windowTxs()
	attempts := 0
	for _, tx := range uTxs {
		attempts += tx.attempts
	}
	res.add("core.attempts_per_tx", "count", float64(attempts)/float64(len(uTxs)))

	// Benchmark-side Tx spans come from the traced window.
	var reads, writes []int64
	for _, a := range t.apps {
		for _, s := range a.spans {
			if s.start < t.ws || s.start >= t.we {
				continue
			}
			switch s.kind {
			case spanRead:
				reads = append(reads, s.dur)
			case spanWrite:
				writes = append(writes, s.dur)
			}
		}
	}
	sorted(reads)
	sorted(writes)
	res.add("core.read_p50_us", "us", quantile(reads, 0.50)/1e3)
	res.add("core.read_p99_us", "us", quantile(reads, 0.99)/1e3)
	res.add("core.write_p50_us", "us", quantile(writes, 0.50)/1e3)
	res.add("core.write_p99_us", "us", quantile(writes, 0.99)/1e3)

	us := func(id obs.HistID, q float64) float64 {
		return float64(t.hists[id].Quantile(q)) / 1e3
	}
	res.add("lock.waits_per_tx", "count", per(sim.CtrLockWaits))
	res.add("lock.wait_p50_us", "us", us(obs.HistLockWait, 0.50))
	res.add("lock.wait_p99_us", "us", us(obs.HistLockWait, 0.99))
	res.add("lock.deadlock_aborts_per_ktx", "count", 1000*per(sim.CtrDeadlockAborts))
	res.add("lock.timeout_aborts_per_ktx", "count", 1000*per(sim.CtrTimeoutAborts))

	res.add("consistency.callbacks_per_tx", "count", per(sim.CtrCallbacks))
	res.add("consistency.callback_p50_us", "us", us(obs.HistCallbackRound, 0.50))
	res.add("consistency.callback_p99_us", "us", us(obs.HistCallbackRound, 0.99))
	res.add("consistency.extra_rounds_per_ktx", "count", 1000*per(sim.CtrCallbackRounds))
	res.add("consistency.adaptive_grants_per_tx", "count", per(sim.CtrAdaptiveGrants))
	res.add("consistency.deescalations_per_ktx", "count", 1000*per(sim.CtrDeescalations))

	res.add("buffer.hit_frac", "ratio", float64(ctr[sim.CtrLocalHits])/float64(ctr[sim.CtrObjectReads]))
	res.add("buffer.page_transfers_per_tx", "count", per(sim.CtrPageTransfers))

	res.add("transport.msgs_per_tx", "count", per(sim.CtrMessages))
	res.add("transport.rpc_p50_us", "us", us(obs.HistRPC, 0.50))
	res.add("transport.rpc_p99_us", "us", us(obs.HistRPC, 0.99))
	res.add("transport.retries_per_ktx", "count", 1000*per(sim.CtrRetries))
	res.add("transport.frame_bytes_p50", "bytes", float64(t.hists[obs.HistTCPFrameSize].Quantile(0.50)))
	res.add("transport.frame_write_p50_us", "us", us(obs.HistTCPFrameWrite, 0.50))

	res.add("storage.disk_reads_per_tx", "count", per(sim.CtrDiskReads))
	res.add("storage.disk_writes_per_tx", "count", per(sim.CtrDiskWrites))
	res.add("storage.io_p99_us", "us", us(obs.HistDiskIO, 0.99))

	res.add("wal.log_records_per_tx", "count", per(sim.CtrLogRecords))

	bd := critpath.Analyze(committedTraces(t.events))
	for _, ph := range []struct {
		name  string
		phase critpath.Phase
	}{
		{"lock_wait", critpath.PhaseLockWait}, {"callback", critpath.PhaseCallback},
		{"network", critpath.PhaseNetwork}, {"disk", critpath.PhaseDisk},
		{"wal", critpath.PhaseWAL}, {"other", critpath.PhaseOther},
	} {
		res.add("critpath."+ph.name+"_ms_per_tx", "ms", float64(bd.PerCommit(ph.phase))/1e6)
	}
	fmt.Printf("critpath over %d commits whose trace kept its commit span (%d events dropped)\n", bd.Commits, t.dropped)

	res.add("runtime.alloc_kb_per_tx", "KB", u.rt[rtAllocBytes]/1024/commits)
	res.add("runtime.allocs_per_tx", "count", u.rt[rtAllocObjects]/commits)
	res.add("runtime.gc_cpu_frac", "ratio", u.rt[rtGCCPU]/(u.rt[rtTotalCPU]-u.rt[rtIdleCPU]))

	untracedTPS := float64(len(uTxs)) / u.seconds()
	tracedTPS := float64(len(t.windowTxs())) / t.seconds()
	res.add("obs.overhead_frac", "ratio", 1-tracedTPS/untracedTPS)
	res.add("obs.dropped_events", "count", float64(t.dropped))

	if err := writePerfetto(traceOut, t); err != nil {
		return res, err
	}
	fmt.Printf("perfetto trace: %s\n", traceOut)
	return res, nil
}

// committedTraces keeps the events of traces whose commit span survived in
// the rings, so per-commit averages divide by the commits whose spans they
// sum.
func committedTraces(events []obs.Event) []obs.Event {
	committed := make(map[string]bool)
	for _, ev := range events {
		if ev.Kind == obs.EvCommit {
			committed[ev.Tx] = true
		}
	}
	var out []obs.Event
	for _, ev := range events {
		if committed[ev.Tx] {
			out = append(out, ev)
		}
	}
	return out
}

// writePerfetto merges the benchmark's own Tx spans with the program's
// trace rings into one Chrome trace-event file. Only transactions the
// rings still hold get their benchmark spans.
func writePerfetto(path string, t *phase) error {
	events := append([]obs.Event(nil), t.events...)
	inRings := make(map[string]bool)
	for _, ev := range t.events {
		inRings[ev.Tx] = true
	}
	for _, a := range t.apps {
		site := fmt.Sprintf("bench/c%d", a.idx+1)
		for _, s := range a.spans {
			if s.start < t.ws || s.start >= t.we || !inRings[s.tx.name()] {
				continue
			}
			events = append(events, obs.Event{
				Kind: obs.EvClientOp, At: time.Duration(s.start + s.dur), Dur: time.Duration(s.dur),
				Site: site, Tx: s.tx.name(), Note: s.kind.String(),
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return fmt.Errorf("perfetto trace: %w", err)
	}
	return f.Close()
}
