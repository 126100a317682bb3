package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptivecc/internal/sim"
)

// DefaultTraceCap is the per-peer trace ring capacity when unset.
const DefaultTraceCap = 4096

// Config enables and parameterizes the observability subsystem on a
// system. The zero value means disabled: no registries are created and
// every instrumentation site reduces to a nil check.
type Config struct {
	// Enabled turns the subsystem on.
	Enabled bool
	// TraceCap is the per-peer trace ring capacity (default 4096).
	TraceCap int
	// TimeScale is the simulation cost scale (sim.CostTable.Scale): when
	// positive, wall-clock durations are divided by it so histograms and
	// trace timestamps are in paper time. Zero keeps wall time.
	TimeScale float64
	// Sink, when non-nil, receives every emitted event in addition to the
	// per-peer trace rings. It is invoked synchronously on the emitting
	// goroutine (possibly from several goroutines at once), so it must be
	// cheap and thread-safe. The online invariant auditor subscribes here.
	Sink func(Event)
}

// HistID names one of the tracked latency histograms.
type HistID int

// The histograms recorded by the protocol layers. The first block is
// duration-valued (paper-time latencies); the trailing entries carry
// non-time units (bytes, counts) encoded in the same fixed-bucket
// mechanics — see Unit.
const (
	HistLockWait      HistID = iota // blocked lock-request wait time
	HistCallbackRound               // server-side callback round duration
	HistRPC                         // request/reply round trip
	HistDiskIO                      // page read/write and log force
	HistCommit                      // Tx.Commit total duration
	HistTCPFrameWrite               // one socket Write of a TCP path (one or more coalesced frames)
	HistTCPBackoff                  // one reconnect-backoff sleep of a path keeper
	HistTCPFrameSize                // encoded frame payload size (bytes)
	HistWALBatch                    // group-commit batch size (forces per disk write)
	NumHists
)

// Unit is the value domain of a histogram: durations are recorded in
// paper-time nanoseconds, the rest as raw integer magnitudes reinterpreted
// through the same log-spaced buckets (bucket bounds read as plain counts).
type Unit int

// The histogram units.
const (
	UnitSeconds Unit = iota // time.Duration observations, exported in seconds
	UnitBytes               // byte counts (frame sizes)
	UnitCount               // plain counts (batch cohort sizes)
)

// MetricName is the Prometheus-style base name of the histogram.
func (h HistID) MetricName() string {
	switch h {
	case HistLockWait:
		return "lock_wait"
	case HistCallbackRound:
		return "callback_round"
	case HistRPC:
		return "rpc"
	case HistDiskIO:
		return "disk_io"
	case HistCommit:
		return "commit"
	case HistTCPFrameWrite:
		return "tcp_frame_write"
	case HistTCPBackoff:
		return "tcp_reconnect_backoff"
	case HistTCPFrameSize:
		return "tcp_frame_bytes"
	case HistWALBatch:
		return "wal_group_batch_size"
	default:
		return "unknown"
	}
}

// Unit reports the histogram's value domain.
func (h HistID) Unit() Unit {
	switch h {
	case HistTCPFrameSize:
		return UnitBytes
	case HistWALBatch:
		return UnitCount
	default:
		return UnitSeconds
	}
}

// String renders the histogram name.
func (h HistID) String() string { return h.MetricName() }

// Registry is the per-peer observability handle: one histogram per HistID
// and a bounded trace ring, sharing the Set's clock and scale. A nil
// Registry is valid — Active() is false and every method is a no-op — so
// peers carry one pointer whether or not observability is on.
type Registry struct {
	site    string
	scale   float64
	start   time.Time
	enabled atomic.Bool
	hists   [NumHists]Histogram
	ring    *TraceRing
	sink    func(Event) // optional live subscriber (Config.Sink)
}

// NewRegistry returns a standalone enabled registry (tests and
// benchmarks; production registries come from Set.NewRegistry).
func NewRegistry(site string, scale float64, traceCap int) *Registry {
	r := &Registry{site: site, scale: scale, start: time.Now(), ring: newTraceRing(traceCap)}
	r.enabled.Store(true)
	return r
}

// Active reports whether the registry should be fed. Nil-safe: the
// disabled path is a nil check plus an atomic load at most.
func (r *Registry) Active() bool { return r != nil && r.enabled.Load() }

// SetEnabled toggles recording (benchmarks measure the disabled path of a
// non-nil registry with this).
func (r *Registry) SetEnabled(v bool) { r.enabled.Store(v) }

// Site reports the peer name this registry belongs to.
func (r *Registry) Site() string { return r.site }

// simDur converts a wall duration to paper time.
func (r *Registry) simDur(wall time.Duration) time.Duration {
	if r.scale > 0 {
		return time.Duration(float64(wall) / r.scale)
	}
	return wall
}

// Now reports the current paper time since the registry's epoch.
func (r *Registry) Now() time.Duration {
	return r.simDur(time.Since(r.start))
}

// Observe records a wall-clock duration into a histogram, converted to
// paper time. No-op when inactive. Non-duration histograms (Unit !=
// UnitSeconds) record their magnitude untouched: a byte count or a batch
// size is the same number at every time scale.
func (r *Registry) Observe(id HistID, wall time.Duration) {
	if !r.Active() {
		return
	}
	if id.Unit() == UnitSeconds {
		wall = r.simDur(wall)
	}
	r.hists[id].Observe(wall)
}

// ObserveValue records a unitless magnitude (bytes, counts) into a
// non-duration histogram. Equivalent to Observe with the value cast to a
// Duration; provided so call sites don't cast by hand.
func (r *Registry) ObserveValue(id HistID, v int64) {
	r.Observe(id, time.Duration(v))
}

// StartSpan allocates a child span of parent for work about to happen at
// this site, inheriting the parent's trace identity unless trace is set.
// When the registry is inactive it returns the zero context, which every
// downstream consumer treats as "no span" — the disabled path allocates
// nothing.
func (r *Registry) StartSpan(trace string, parent SpanContext) SpanContext {
	if !r.Active() {
		return SpanContext{}
	}
	return NewSpan(trace, parent)
}

// Emit records a trace event stamped with the current paper time. dur is
// the wall-clock duration of the spanned work (zero for instants). No-op
// when inactive.
func (r *Registry) Emit(kind EventKind, tx, item string, dur time.Duration, note string) {
	r.EmitSpan(kind, SpanContext{Trace: tx}, item, dur, "", note)
}

// EmitSpan records a trace event carrying a span context: sc.Trace becomes
// the event's Tx, sc.Span/sc.Parent its position in the causal tree. peer
// names the remote site involved (empty when none). No-op when inactive.
func (r *Registry) EmitSpan(kind EventKind, sc SpanContext, item string, dur time.Duration, peer, note string) {
	if !r.Active() {
		return
	}
	ev := Event{
		Kind:   kind,
		At:     r.Now(),
		Dur:    r.simDur(dur),
		Site:   r.site,
		Tx:     sc.Trace,
		Item:   item,
		Note:   note,
		Peer:   peer,
		Span:   sc.Span,
		Parent: sc.Parent,
	}
	r.ring.Add(ev)
	if r.sink != nil {
		r.sink(ev)
	}
}

// Hist snapshots one histogram of this registry.
func (r *Registry) Hist(id HistID) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.hists[id].Snapshot()
}

// Events snapshots the registry's trace ring oldest-first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.ring.Snapshot()
}

// Dropped reports the number of trace events lost to ring wraparound.
func (r *Registry) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// GaugeValue is one sampled gauge: a live quantity (queue depth,
// outstanding callback rounds) read at snapshot time through its
// registered closure.
type GaugeValue struct {
	Name   string
	Labels map[string]string
	Value  int64
}

// gauge pairs a gauge's identity with its sampling closure.
type gauge struct {
	name   string
	labels map[string]string
	key    string // deterministic sort key: name + rendered labels
	fn     func() int64
}

// Set is one system's observability state: the per-peer registries, a
// shared epoch, registered gauges, and the system's sim.Stats counters —
// the unified view served by the metrics surface.
type Set struct {
	cfg   Config
	stats *sim.Stats
	start time.Time

	mu     sync.Mutex
	regs   []*Registry
	gauges []gauge
}

// NewSet builds the observability state for one system. stats may be nil.
func NewSet(cfg Config, stats *sim.Stats) *Set {
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = DefaultTraceCap
	}
	if stats == nil {
		stats = sim.NewStats()
	}
	return &Set{cfg: cfg, stats: stats, start: time.Now()}
}

// Stats exposes the counter set this Set reports alongside its histograms.
func (s *Set) Stats() *sim.Stats { return s.stats }

// Epoch reports the wall-clock instant of the Set's paper-time zero. The
// snapshot exporter ships it so a collector can re-base trace timestamps
// from several processes onto one fleet-wide axis.
func (s *Set) Epoch() time.Time { return s.start }

// TimeScale reports the configured paper-time scale (0 = wall time).
func (s *Set) TimeScale() float64 { return s.cfg.TimeScale }

// RegisterGauge attaches a live-sampled gauge to the Set. fn is invoked on
// every metrics scrape and snapshot capture (possibly concurrently with
// the system), so it must be cheap and thread-safe. Labels distinguish
// instances of the same metric (per peer, per link path).
func (s *Set) RegisterGauge(name string, labels map[string]string, fn func() int64) {
	g := gauge{name: name, labels: labels, key: gaugeKey(name, labels), fn: fn}
	s.mu.Lock()
	s.gauges = append(s.gauges, g)
	s.mu.Unlock()
}

// gaugeKey renders a deterministic identity for sorting and display.
func gaugeKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := name
	for _, k := range keys {
		out += "," + k + "=" + labels[k]
	}
	return out
}

// GaugeValues samples every registered gauge, sorted by identity for
// deterministic exposition.
func (s *Set) GaugeValues() []GaugeValue {
	s.mu.Lock()
	gs := append([]gauge(nil), s.gauges...)
	s.mu.Unlock()
	sort.Slice(gs, func(i, j int) bool { return gs[i].key < gs[j].key })
	out := make([]GaugeValue, len(gs))
	for i, g := range gs {
		out[i] = GaugeValue{Name: g.name, Labels: g.labels, Value: g.fn()}
	}
	return out
}

// Now reports the current paper time since the Set's epoch — the same
// clock its registries stamp events with. The harness uses it to window
// trace events to one measurement interval.
func (s *Set) Now() time.Duration {
	wall := time.Since(s.start)
	if s.cfg.TimeScale > 0 {
		return time.Duration(float64(wall) / s.cfg.TimeScale)
	}
	return wall
}

// NewRegistry creates (and retains) the registry for one peer. All of a
// Set's registries share its epoch, so their trace timestamps align.
func (s *Set) NewRegistry(site string) *Registry {
	return s.NewRegistryCap(site, s.cfg.TraceCap)
}

// NewRegistryCap is NewRegistry with an explicit trace-ring capacity; the
// transport uses a minimal ring for its per-path registries, which record
// histograms but never emit events.
func (s *Set) NewRegistryCap(site string, traceCap int) *Registry {
	if traceCap <= 0 {
		traceCap = s.cfg.TraceCap
	}
	r := &Registry{site: site, scale: s.cfg.TimeScale, start: s.start, ring: newTraceRing(traceCap), sink: s.cfg.Sink}
	r.enabled.Store(true)
	s.mu.Lock()
	s.regs = append(s.regs, r)
	s.mu.Unlock()
	return r
}

// Registries snapshots the per-peer registries.
func (s *Set) Registries() []*Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Registry(nil), s.regs...)
}

// Merged aggregates one histogram across every peer.
func (s *Set) Merged(id HistID) HistSnapshot {
	var out HistSnapshot
	for _, r := range s.Registries() {
		out.Merge(r.Hist(id))
	}
	return out
}

// MergedAll aggregates every histogram across every peer.
func (s *Set) MergedAll() [NumHists]HistSnapshot {
	var out [NumHists]HistSnapshot
	for _, r := range s.Registries() {
		for id := HistID(0); id < NumHists; id++ {
			h := r.Hist(id)
			out[id].Merge(h)
		}
	}
	return out
}

// TraceEvents merges every peer's trace ring, ordered by timestamp (ties
// broken by site for determinism).
func (s *Set) TraceEvents() []Event {
	var out []Event
	for _, r := range s.Registries() {
		out = append(out, r.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// DroppedEvents totals the trace events lost to ring wraparound.
func (s *Set) DroppedEvents() uint64 {
	var n uint64
	for _, r := range s.Registries() {
		n += r.Dropped()
	}
	return n
}
