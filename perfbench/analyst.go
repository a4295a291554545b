package main

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/dpgo/svt/client"
)

type opKind uint8

const (
	opCreate opKind = iota
	opQuery
	opStatus
	opDelete
)

var opNames = [...]string{"create", "query", "status", "delete"}

// phase tags when a call was made, so metrics can pick their samples.
type phase uint8

const (
	phaseSetup phase = iota
	phaseWarmup
	phaseWindow
	phaseCheck
)

// epoch anchors every timestamp in the process (monotonic nanoseconds).
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

const (
	numOps    = 4
	numPhases = 4
)

// call is one timed client call, kept with its timestamps in traced
// phases so spans can be attributed to it.
type call struct {
	kind   opKind
	phase  phase
	t0, t1 int64
}

// session is an analyst's record of one session it created.
type session struct {
	id      string
	params  client.CreateParams
	digest  uint64
	halted  bool
	batches int
	deleted bool
	// status is the status fetched after the run; nil for a deleted
	// session.
	status *client.SessionStatus
	// gone records that a status after delete reported not-found.
	gone bool
}

// lifecycle stages.
const (
	stageCreate = iota
	stageQuery
	stageStatus
	stageDelete
)

// analyst is one closed-loop client: it sends its next request only
// after the previous response arrived. The same code drives the server
// and, in replay, the reference.
type analyst struct {
	w        *workload
	g        *gen
	e        edge
	sessions []session
	cur      int // lifecycle: the live session
	stage    int

	phase   phase
	steps   int // generator steps taken (warm-up and window)
	answers int // answers released in the window
	failed  int
	errs    []string

	// lat holds every call's round trip in nanoseconds by phase and
	// kind, in buffers sized before set-up outside the Go heap (see
	// reserve).
	lat [numPhases][numOps][]uint32
	// calls is kept only when traced is set.
	calls  []call
	traced bool

	// items and thresholds are reused for every batch.
	items      []client.QueryItem
	thresholds []float64

	// done counts finished calls process-wide, for the crash heartbeat.
	done *atomic.Int64
}

func newAnalyst(w *workload, seed uint64, idx int, e edge, done *atomic.Int64) *analyst {
	return &analyst{w: w, g: newGen(w, seed, idx), e: e, done: done}
}

// Upper bounds on one closed-loop analyst's call rate, for sizing the
// latency buffers; a faster run just grows them.
const (
	maxQueriesPerSecond   = 60000
	maxLifecyclePerSecond = 20000
)

// reserve sizes the latency buffers for a run with the given window.
func (a *analyst) reserve(window time.Duration) {
	secs := int(window.Seconds()) + 1
	a.lat[phaseSetup][opCreate] = offHeap(a.w.sessions)
	a.lat[phaseWarmup][opQuery] = offHeap(a.w.warmup)
	a.lat[phaseWindow][opQuery] = offHeap(secs * maxQueriesPerSecond)
	a.lat[phaseCheck][opStatus] = offHeap(a.w.sessions + maxQueriesPerSecond)
	if a.w.lifecycle {
		for _, k := range []opKind{opCreate, opStatus, opDelete} {
			a.lat[phaseWarmup][k] = offHeap(a.w.warmup)
			a.lat[phaseWindow][k] = offHeap(secs * maxLifecyclePerSecond)
		}
	}
}

// offHeap returns an empty buffer with room for n entries, mapped
// outside the Go heap: recording latencies then neither grows the heap
// nor raises the garbage collector's goal, so the server's collections
// run as they would without the benchmark's bookkeeping. Untouched
// pages cost no memory. A full buffer grows on the heap as usual.
func offHeap(n int) []uint32 {
	if n == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, 0, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)[:0]
}

// timed runs one call and records it. A failed call is counted and its
// error kept (the first few), and false is returned.
func (a *analyst) timed(kind opKind, f func() error) bool {
	t0 := nowNS()
	err := f()
	t1 := nowNS()
	a.lat[a.phase][kind] = append(a.lat[a.phase][kind], uint32(min(t1-t0, math.MaxUint32)))
	if a.traced {
		a.calls = append(a.calls, call{kind: kind, phase: a.phase, t0: t0, t1: t1})
	}
	if a.done != nil {
		a.done.Add(1)
	}
	if err != nil {
		a.fail("%s: %v", opNames[kind], err)
		return false
	}
	return true
}

func (a *analyst) fail(format string, args ...any) {
	a.failed++
	if len(a.errs) < 5 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// setup creates the workload's long-lived sessions.
func (a *analyst) setup() {
	a.phase = phaseSetup
	for k := 0; k < a.w.sessions; k++ {
		a.createSession(k)
	}
}

func (a *analyst) createSession(k int) {
	s := session{params: a.g.session(k)}
	a.timed(opCreate, func() (err error) {
		s.id, err = a.e.create(s.params)
		return err
	})
	a.sessions = append(a.sessions, s)
}

// step takes one generator step: a query on a wire workload, the next
// lifecycle stage otherwise.
func (a *analyst) step() {
	a.steps++
	if !a.w.lifecycle {
		k := a.g.pick()
		a.query(k, a.batch(&a.sessions[k].params, 0))
		return
	}
	switch a.stage {
	case stageCreate:
		a.cur = len(a.sessions)
		a.createSession(a.cur)
		a.stage = stageQuery
	case stageQuery:
		s := &a.sessions[a.cur]
		a.query(a.cur, a.batch(&s.params, 10*float64(s.batches)))
		s.batches++
		if s.halted {
			a.stage = stageStatus
		}
	case stageStatus:
		// A lifecycle's closing status joins the session's digest rather
		// than being kept: analysts retain little per finished session,
		// so the benchmark's own memory does not grow with throughput.
		s := &a.sessions[a.cur]
		if st := a.fetchStatus(a.cur); st != nil {
			s.digest = statusDigest(s.digest, st)
		}
		a.stage = stageDelete
	case stageDelete:
		s := &a.sessions[a.cur]
		a.timed(opDelete, func() error { return a.e.remove(s.id) })
		s.deleted = true
		a.stage = stageCreate
	}
}

// batch generates the next batch into the analyst's reused buffers.
func (a *analyst) batch(p *client.CreateParams, drift float64) []client.QueryItem {
	n := a.g.batchSize()
	if cap(a.items) < n {
		a.items, a.thresholds = make([]client.QueryItem, n), make([]float64, n)
	}
	a.items, a.thresholds = a.items[:n], a.thresholds[:n]
	a.g.items(p, a.items, a.thresholds, drift)
	return a.items
}

func (a *analyst) query(k int, items []client.QueryItem) {
	s := &a.sessions[k]
	var br *client.BatchResult
	if !a.timed(opQuery, func() (err error) {
		br, err = a.e.query(s.id, items)
		return err
	}) {
		return
	}
	if len(br.Results) > len(items) {
		a.fail("query: %d results for %d items", len(br.Results), len(items))
		return
	}
	s.digest = digest(s.digest, br)
	s.halted = br.Halted
	if s.halted && !a.w.lifecycle {
		a.fail("query: session %s halted on a workload sized so none halts", s.id)
	}
	if a.phase == phaseWindow {
		a.answers += len(br.Results)
	}
}

// fetchStatus fetches a session's status. A deleted session must be
// not-found: that marks it gone and returns nil, as does a failed call.
func (a *analyst) fetchStatus(k int) *client.SessionStatus {
	s := &a.sessions[k]
	var st *client.SessionStatus
	ok := a.timed(opStatus, func() (err error) {
		st, err = a.e.status(s.id)
		if s.deleted && errors.Is(err, errNotFound) {
			return nil
		}
		return err
	})
	switch {
	case !ok:
		return nil
	case s.deleted && st != nil:
		a.fail("status: deleted session %s still served", s.id)
		return nil
	case s.deleted:
		s.gone = true
		return nil
	}
	return st
}

// run steps until the deadline (monotonic nanoseconds).
func (a *analyst) run(deadline int64) {
	for nowNS() < deadline {
		a.step()
	}
}

// check fetches every session's status after the run: live sessions must
// match the reference, deleted ones must be gone. It repeats the pass
// until minTime has passed, so the status round trip is timed over
// enough calls to be steady.
func (a *analyst) check(minTime time.Duration) {
	a.phase = phaseCheck
	end := nowNS() + int64(minTime)
	for pass := 0; pass == 0 || nowNS() < end; pass++ {
		for k := range a.sessions {
			if st := a.fetchStatus(k); st != nil {
				a.sessions[k].status = st
			}
		}
	}
}

// replay drives a fresh analyst over the reference through the same
// steps and returns it. Its sessions hold the answers and statuses the
// server should have produced.
func (a *analyst) replay(seed uint64, idx int) *analyst {
	ref := newAnalyst(a.w, seed, idx, newRefEdge(), nil)
	ref.setup()
	ref.phase = phaseWarmup
	for ref.steps < a.steps {
		ref.step()
	}
	ref.check(0)
	return ref
}

// compare counts the ways the served run differs from its replay — the
// sessions created and their parameters, each session's digest of
// released answers, each status fetched — and describes the first few.
func compare(got, ref *analyst) (int, []string) {
	var n int
	var out []string
	add := func(format string, args ...any) {
		n++
		if len(out) < 10 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	if got.failed != ref.failed {
		add("reference replay failed %d calls, served run %d", ref.failed, got.failed)
	}
	if len(got.sessions) != len(ref.sessions) {
		add("%d sessions created, reference %d", len(got.sessions), len(ref.sessions))
		return n, out
	}
	for k := range got.sessions {
		g, r := &got.sessions[k], &ref.sessions[k]
		switch {
		case g.params.Seed != r.params.Seed:
			add("session %d: seed %d, reference %d", k, g.params.Seed, r.params.Seed)
		case g.digest != r.digest:
			add("session %d (%s, %s): released answers or statuses differ from the reference", k, g.id, g.params.Mechanism)
		case g.deleted != r.deleted || g.gone != r.gone:
			add("session %d (%s): deleted=%v gone=%v, reference deleted=%v gone=%v", k, g.id, g.deleted, g.gone, r.deleted, r.gone)
		case (g.status == nil) != (r.status == nil):
			add("session %d (%s): status fetched=%v, reference %v", k, g.id, g.status != nil, r.status != nil)
		case g.status != nil:
			if err := sameStatus(g.status, r.status); err != nil {
				add("session %d (%s): status: %v", k, g.id, err)
			}
		}
	}
	return n, out
}
