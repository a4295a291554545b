package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSampleRate: the unforced decision fires exactly once per
// SampleEvery, force always samples, and a nil tracer never does.
func TestSampleRate(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sample(false) {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampling hit %d of 400", hits)
	}
	for i := 0; i < 10; i++ {
		if !tr.Sample(true) {
			t.Fatal("forced request not sampled")
		}
	}
	one := New(Config{SampleEvery: 1})
	if !one.Sample(false) {
		t.Fatal("SampleEvery=1 must sample everything")
	}
	var nilTracer *Tracer
	if nilTracer.Sample(true) {
		t.Fatal("nil tracer sampled a request")
	}
}

// TestNilSpanSafety: every span operation on the not-sampled (nil) path
// must be a no-op, and the whole not-sampled flow must not allocate.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("child of nil span is not nil")
	}
	s.AttachChild("y", 1, 2)
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 7)
	s.End()
	if start, end := s.Bounds(); start != 0 || end != 0 {
		t.Fatal("nil span has bounds")
	}
	if s.TraceIDString() != "" || !s.TraceID().IsZero() {
		t.Fatal("nil span has an identity")
	}

	tr := New(Config{SampleEvery: 1 << 30})
	allocs := testing.AllocsPerRun(100, func() {
		if tr.Sample(false) {
			t.Fatal("sampled despite a huge period")
		}
		var root *Span
		child := root.StartChild("decode")
		child.End()
		root.SetAttr("session", "s")
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("not-sampled path allocates %.1f/op, want 0", allocs)
	}
}

// TestSpanTreeAndFinalize: a root publishes its tree on End; children
// abandoned open are clamped to the root's end, and attached intervals
// are clamped into their parent, so rendered durations always nest.
func TestSpanTreeAndFinalize(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Capacity: 8})
	root := tr.StartRoot("http", "/q", "req-1", TraceID{})
	child := root.StartChild("decode")
	child.End()
	abandoned := root.StartChild("manager") // never ended: an error path bailed
	abandoned.StartChild("answer")          // nor its child
	start, _ := root.Bounds()
	root.AttachChild("early", start-500, start+1) // starts before the root: clamped
	time.Sleep(time.Millisecond)
	root.End()
	root.End() // double-End must not double-publish

	if got := len(tr.Recent("", 0, 0)); got != 1 {
		t.Fatalf("published %d traces, want 1", got)
	}
	v, ok := tr.Lookup(root.TraceIDString())
	if !ok {
		t.Fatal("published trace not retrievable by trace ID")
	}
	if v.RequestID != "req-1" || v.Route != "/q" {
		t.Fatalf("view identity: %+v", v)
	}
	if len(v.Root.Children) != 3 {
		t.Fatalf("root has %d children, want 3", len(v.Root.Children))
	}
	var check func(n Node, parentDur int64)
	check = func(n Node, parentDur int64) {
		if n.DurationNanos < 0 {
			t.Fatalf("span %s has negative duration", n.Name)
		}
		if n.OffsetNanos < 0 {
			t.Fatalf("span %s starts before the root", n.Name)
		}
		if n.OffsetNanos+n.DurationNanos > parentDur {
			t.Fatalf("span %s [%d,+%d] escapes its parent (%d)",
				n.Name, n.OffsetNanos, n.DurationNanos, parentDur)
		}
		for _, c := range n.Children {
			check(c, v.Root.DurationNanos)
		}
	}
	for _, c := range v.Root.Children {
		check(c, v.Root.DurationNanos)
	}

	// Lookup by the correlated request ID must find the same trace.
	if byReq, ok := tr.Lookup("req-1"); !ok || byReq.TraceID != v.TraceID {
		t.Fatal("lookup by request ID failed")
	}
}

// TestStartRootAt: a root backdated to an earlier Now value starts there,
// so a child measured from that instant (an edge's decode, timed before
// the sampling decision) keeps its full interval instead of being clamped.
func TestStartRootAt(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	t0 := Now()
	time.Sleep(time.Millisecond)
	root := tr.StartRootAt("wire", "wire:query", "req-at", TraceID{}, t0)
	decode := root.AttachChild("decode", t0, Now())
	root.End()
	if start, _ := root.Bounds(); start != t0 {
		t.Fatalf("root starts at %d, want the backdated %d", start, t0)
	}
	if start, end := decode.Bounds(); start != t0 || end-start < int64(time.Millisecond) {
		t.Fatalf("decode child [%d, %d] lost its interval from %d", start, end, t0)
	}
}

// TestRingEvictionAndSlowestReservoir: the ring keeps the last Capacity
// roots; the reservoir keeps each route's slowest beyond that, capped at
// MaxRoutes routes.
func TestRingEvictionAndSlowestReservoir(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Capacity: 4, MaxRoutes: 2})

	// A deliberately slow trace on route A, then enough fast traces to
	// recycle its ring slot several times over.
	slow := tr.StartRoot("http", "A", "slow-req", TraceID{})
	time.Sleep(5 * time.Millisecond)
	slow.End()
	for i := 0; i < 16; i++ {
		tr.StartRoot("http", "A", fmt.Sprintf("fast-%d", i), TraceID{}).End()
	}
	if _, ok := tr.Lookup("slow-req"); !ok {
		t.Fatal("route's slowest trace was recycled with the ring")
	}
	var found bool
	for _, s := range tr.Recent("A", 0, 0) {
		if s.RequestID == "slow-req" {
			found = true
			if !s.Slowest {
				t.Fatal("reservoir entry not marked slowest")
			}
		}
	}
	if !found {
		t.Fatal("slowest trace missing from Recent")
	}

	// minDuration filters the fast traces out.
	for _, s := range tr.Recent("A", 2*time.Millisecond, 0) {
		if s.RequestID != "slow-req" {
			t.Fatalf("minDuration let %q through", s.RequestID)
		}
	}

	// Route cardinality is capped: routes beyond MaxRoutes get no
	// reservoir slot, so their traces die with the ring.
	tr.StartRoot("http", "B", "", TraceID{}).End()
	victim := tr.StartRoot("http", "C", "victim", TraceID{})
	time.Sleep(time.Millisecond)
	victim.End()
	for i := 0; i < 8; i++ {
		tr.StartRoot("http", "A", "", TraceID{}).End()
	}
	if _, ok := tr.Lookup("victim"); ok {
		t.Fatal("route past MaxRoutes kept a reservoir slot")
	}
}

// TestRingConcurrent hammers the ring with concurrent writers and readers;
// run under -race this is the memory-model check for the lock-free
// publish path.
func TestRingConcurrent(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Capacity: 32, MaxRoutes: 4})
	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range tr.Recent("", 0, 16) {
					if s.DurationNanos < 0 || s.Spans < 1 {
						t.Errorf("inconsistent summary read: %+v", s)
						return
					}
					if _, ok := tr.Lookup(s.TraceID); !ok {
						continue // recycled between list and lookup: fine
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := fmt.Sprintf("route-%d", w%3)
			for i := 0; i < perWriter; i++ {
				root := tr.StartRoot("http", route, "", TraceID{})
				c := root.StartChild("work")
				c.SetAttrInt("i", int64(i))
				c.End()
				root.End()
			}
		}(w)
	}
	// Writers finish on their own; readers run until released.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done

	got := tr.Recent("", 0, 0)
	if len(got) == 0 || len(got) > 32+4 {
		t.Fatalf("retained %d traces, want 1..36", len(got))
	}
}

// TestIDMinting: minted IDs are non-zero and render as fixed-width hex.
func TestIDMinting(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := mintTraceID()
		if id.IsZero() {
			t.Fatal("minted a zero trace ID")
		}
		s := id.String()
		if len(s) != 32 {
			t.Fatalf("trace ID %q not 32 hex chars", s)
		}
		if seen[s] {
			t.Fatalf("trace ID %q repeated within 100 mints", s)
		}
		seen[s] = true
		if sp := mintSpanID(); sp == (SpanID{}) || len(sp.String()) != 16 {
			t.Fatal("bad span ID mint")
		}
	}
}
