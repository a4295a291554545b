package trace

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the package's monotonic clock; Now values are nanoseconds
// since process start, matching the telemetry package's clock discipline
// (one monotonic read, no wall-clock read). Only differences are
// meaningful. Each root additionally records a wall-clock anchor so traces
// render with absolute timestamps.
var epoch = time.Now()

// Now returns the tracer's monotonic timestamp in nanoseconds since
// process start. Span Start/End read it internally; callers only need it
// to anchor explicitly-attached child intervals (see Span.AttachChild).
func Now() int64 { return int64(time.Since(epoch)) }

// Defaults for Config zero values.
const (
	DefaultSampleEvery = 16
	DefaultCapacity    = 1024
	DefaultMaxRoutes   = 64
)

// Config sizes a Tracer. The zero value applies the defaults.
type Config struct {
	// SampleEvery is the head-sampling rate: one unforced request in
	// SampleEvery starts a trace. 1 traces everything; 0 means
	// DefaultSampleEvery. (Forced requests — see Tracer.Sample — are
	// always traced.)
	SampleEvery int
	// Capacity is how many completed root spans the ring buffer retains;
	// 0 means DefaultCapacity.
	Capacity int
	// MaxRoutes caps the slowest-per-route reservoir (and so bounds the
	// memory a path-spraying client can pin); 0 means DefaultMaxRoutes.
	MaxRoutes int
}

// Tracer is the in-process trace store: a head-sampling decision, span
// construction, and a fixed-size lock-free ring of completed root spans
// plus an always-keep reservoir holding the slowest trace per route.
//
// Spans are explicit-parent — a child is created from its parent's
// handle, never from goroutine-local state — and every span method is
// nil-safe, so the not-sampled path carries a nil *Span through the
// layers and allocates nothing.
type Tracer struct {
	every uint64
	tick  atomic.Uint64

	// slots is the ring of completed roots: publish stores at pos (mod
	// len) and bumps pos. Readers load slots atomically; an overwritten
	// root stays valid for readers that already hold it.
	slots []atomic.Pointer[Root]
	pos   atomic.Uint64

	// slowest retains the slowest completed root per route even after the
	// ring has recycled it, so "why was this route slow an hour ago"
	// survives bursts. Guarded by mu; touched once per published trace.
	mu      sync.Mutex
	slowest map[string]*Root
	maxRts  int
}

// New returns a ready Tracer.
func New(cfg Config) *Tracer {
	every := cfg.SampleEvery
	if every <= 0 {
		every = DefaultSampleEvery
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	maxRoutes := cfg.MaxRoutes
	if maxRoutes <= 0 {
		maxRoutes = DefaultMaxRoutes
	}
	return &Tracer{
		every:   uint64(every),
		slots:   make([]atomic.Pointer[Root], capacity),
		slowest: make(map[string]*Root, maxRoutes),
		maxRts:  maxRoutes,
	}
}

// Sample is the head-sampling decision, made once per request before any
// span exists: true for one unforced request in SampleEvery, and always
// true when forced (the caller saw a traceparent or client request ID —
// someone upstream is already correlating this request). Not-sampled
// requests cost one atomic add and allocate nothing. Nil-safe: a nil
// Tracer samples nothing.
func (t *Tracer) Sample(force bool) bool {
	if t == nil {
		return false
	}
	if force {
		return true
	}
	if t.every <= 1 {
		return true
	}
	return t.tick.Add(1)%t.every == 0
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace tree. A span is mutated only by
// the goroutine running the operation it measures (children are created
// and ended in request flow); readers see it only after the root
// publishes, which the ring's atomic store orders. All methods are
// nil-safe no-ops so call sites never branch on "is this request traced".
type Span struct {
	name     string
	start    int64 // Now() at StartChild/StartRoot
	end      int64 // Now() at End; 0 until then
	attrs    []Attr
	children []*Span

	// root is set on the root span only; End on it publishes the trace.
	root *Root
}

// Root is the per-trace envelope around the root span: identity,
// correlation and the wall-clock anchor.
type Root struct {
	span      Span
	tracer    *Tracer
	id        TraceID
	idHex     string // rendered once; echoed in headers and exemplars
	spanID    SpanID
	requestID string
	route     string
	wallStart time.Time
	published atomic.Bool
}

// StartRoot begins a new trace: id is adopted when non-zero (the request
// carried a valid traceparent) and minted otherwise, and a fresh root
// span ID is always minted (this process is a new segment of the
// distributed trace either way). requestID is the X-Request-Id the trace
// is correlated with; route labels the trace for filtering and the
// slowest-per-route reservoir. Nil-safe: a nil Tracer returns a nil span.
func (t *Tracer) StartRoot(name, route, requestID string, id TraceID) *Span {
	return t.StartRootAt(name, route, requestID, id, Now())
}

// StartRootAt is StartRoot for a request whose handling began at start, an
// earlier Now value: an edge that can make the sampling decision only
// after decoding still roots the trace where the decode began.
func (t *Tracer) StartRootAt(name, route, requestID string, id TraceID, start int64) *Span {
	if t == nil {
		return nil
	}
	if id.IsZero() {
		id = mintTraceID()
	}
	r := &Root{
		tracer:    t,
		id:        id,
		idHex:     id.String(),
		spanID:    mintSpanID(),
		requestID: requestID,
		route:     route,
		wallStart: time.Now().Add(time.Duration(start - Now())),
	}
	r.span = Span{name: name, start: start, root: r}
	return &r.span
}

// mintTraceID mints a random 128-bit trace ID. math/rand/v2's global
// generator (ChaCha8, per-P state) is used rather than crypto/rand: trace
// IDs are correlation handles, not secrets, and the sampled path should
// stay cheap.
func mintTraceID() TraceID {
	var id TraceID
	putUint64(id[:8], rand.Uint64())
	putUint64(id[8:], rand.Uint64())
	if id.IsZero() { // all-zero is invalid in W3C trace context
		id[15] = 1
	}
	return id
}

// mintSpanID mints a random 64-bit span ID.
func mintSpanID() SpanID {
	var id SpanID
	putUint64(id[:], rand.Uint64())
	if id == (SpanID{}) {
		id[7] = 1
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// StartChild begins a child span under s, started now. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: Now()}
	s.children = append(s.children, c)
	return c
}

// AttachChild adds an already-measured interval as a child span: the
// caller observed [start, end] (in Now clock units) elsewhere — e.g. a
// store's flush-phase breakdown reported through an instrumentation hook
// — and grafts it into the tree. The interval is clamped to s's own
// bounds so child durations always nest within their parent. Nil-safe.
func (s *Span) AttachChild(name string, start, end int64) *Span {
	if s == nil {
		return nil
	}
	if start < s.start {
		start = s.start
	}
	if s.end != 0 && end > s.end {
		end = s.end
	}
	if end < start {
		end = start
	}
	c := &Span{name: name, start: start, end: end}
	s.children = append(s.children, c)
	return c
}

// SetAttr records a string attribute on the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, value})
}

// SetAttrInt records an integer attribute on the span. Nil-safe.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{key, itoa(v)})
}

// itoa avoids strconv so the package stays import-light; values are small.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// End completes the span. Ending the root span finalizes the tree (a
// child abandoned by an error path inherits its parent's end) and
// publishes the trace into the tracer's ring; double-End on a root is a
// no-op. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.end == 0 {
		s.end = Now()
	}
	if s.root != nil {
		s.root.publish()
	}
}

// Bounds returns the span's start and end in Now clock units (end is 0
// while the span is open). Nil-safe.
func (s *Span) Bounds() (start, end int64) {
	if s == nil {
		return 0, 0
	}
	return s.start, s.end
}

// TraceID returns the trace ID, zero for a nil or non-root span.
func (s *Span) TraceID() TraceID {
	if s == nil || s.root == nil {
		return TraceID{}
	}
	return s.root.id
}

// TraceIDString returns the 32-hex trace ID, "" for a nil or non-root
// span. The string is rendered once at StartRoot, so this is free.
func (s *Span) TraceIDString() string {
	if s == nil || s.root == nil {
		return ""
	}
	return s.root.idHex
}

// SpanID returns the root span's ID, zero for a nil or non-root span.
func (s *Span) SpanID() SpanID {
	if s == nil || s.root == nil {
		return SpanID{}
	}
	return s.root.spanID
}

// finalize closes any span an error path abandoned: a zero end becomes
// the parent's end, so rendered durations always nest.
func finalize(s *Span, parentEnd int64) {
	if s.end == 0 || s.end > parentEnd {
		s.end = parentEnd
	}
	for _, c := range s.children {
		finalize(c, s.end)
	}
}

// publish moves a completed root into the ring and the slowest-per-route
// reservoir. The atomic slot store is the publication barrier: every
// mutation the request goroutine made to the tree happens-before a
// reader's load of the slot.
func (r *Root) publish() {
	if r.published.Swap(true) {
		return
	}
	for _, c := range r.span.children {
		finalize(c, r.span.end)
	}
	t := r.tracer
	i := t.pos.Add(1) - 1
	t.slots[i%uint64(len(t.slots))].Store(r)

	dur := r.span.end - r.span.start
	t.mu.Lock()
	cur := t.slowest[r.route]
	switch {
	case cur == nil:
		if len(t.slowest) < t.maxRts {
			t.slowest[r.route] = r
		}
	case dur > cur.span.end-cur.span.start:
		t.slowest[r.route] = r
	}
	t.mu.Unlock()
}
