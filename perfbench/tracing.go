package main

import (
	"net"
	"sync"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// recorder keeps the traced run's spans in memory. Spans are recorded
// only at the program's public seams, by wrappers in this file: the
// client's dialer, the listeners handed to Serve, the session store and
// the mechanism registry. Nothing inside the program changes.
type recorder struct {
	mu        sync.Mutex
	conns     []*tracedConn
	appends   []storeSpan
	snapshots []span
	news      []newSpan
	insts     []*tracedInstance
}

type span struct{ t0, t1 int64 }

// ioEvent is one socket read or write. For reads only t1 (when the data
// was returned) is meaningful: a read blocks until the peer sends.
type ioEvent struct {
	t0, t1 int64
	n      int
}

// tracedConn records every read and write on one connection. analyst is
// the owning analyst for client-side connections, -1 on the server side.
type tracedConn struct {
	net.Conn
	analyst int

	mu     sync.Mutex
	reads  []ioEvent
	writes []ioEvent
}

func (r *recorder) wrapConn(c net.Conn, analyst int) *tracedConn {
	tc := &tracedConn{Conn: c, analyst: analyst}
	r.mu.Lock()
	r.conns = append(r.conns, tc)
	r.mu.Unlock()
	return tc
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := nowNS()
		c.mu.Lock()
		c.reads = append(c.reads, ioEvent{t0: t, t1: t, n: n})
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := nowNS()
	n, err := c.Conn.Write(p)
	t1 := nowNS()
	c.mu.Lock()
	c.writes = append(c.writes, ioEvent{t0: t0, t1: t1, n: n})
	c.mu.Unlock()
	return n, err
}

// dialer returns an analyst's traced dial function.
func (r *recorder) dialer(analyst int) dialFunc {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return r.wrapConn(c, analyst), nil
	}
}

// tracedListener wraps every accepted connection.
type tracedListener struct {
	net.Listener
	r *recorder
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.r.wrapConn(c, -1), nil
}

// storeSpan is one journal append, attributed by the event's session ID.
type storeSpan struct {
	id     string
	t0, t1 int64
	events int
}

// tracedStore times appends and snapshots on the WAL. Embedding keeps
// every optional interface the WAL implements (BatchAppender, Rotator,
// Healther, Instrumented), so the manager configures itself exactly as
// it would on the bare WAL.
type tracedStore struct {
	*store.WAL
	r *recorder
}

func (s *tracedStore) Append(ev store.Event) error {
	t0 := nowNS()
	err := s.WAL.Append(ev)
	s.r.addAppend(storeSpan{id: ev.ID, t0: t0, t1: nowNS(), events: 1})
	return err
}

func (s *tracedStore) AppendBatch(evs []store.Event) error {
	t0 := nowNS()
	err := s.WAL.AppendBatch(evs)
	if len(evs) > 0 {
		s.r.addAppend(storeSpan{id: evs[0].ID, t0: t0, t1: nowNS(), events: len(evs)})
	}
	return err
}

func (r *recorder) addAppend(sp storeSpan) {
	r.mu.Lock()
	r.appends = append(r.appends, sp)
	r.mu.Unlock()
}

// Rotate times the two-phase snapshot the manager takes through the
// Rotator seam: the rotation here, the commit in tracedRotation.
func (s *tracedStore) Rotate() (store.Rotation, error) {
	t0 := nowNS()
	rot, err := s.WAL.Rotate()
	if err != nil {
		return nil, err
	}
	return &tracedRotation{Rotation: rot, r: s.r, rotate: nowNS() - t0}, nil
}

type tracedRotation struct {
	store.Rotation
	r      *recorder
	rotate int64
}

// Commit records the snapshot as one span whose length is the store's
// own time: rotation plus commit, without the manager's encode between.
func (t *tracedRotation) Commit(state []store.Event) error {
	t0 := nowNS()
	err := t.Rotation.Commit(state)
	t1 := nowNS()
	t.r.mu.Lock()
	t.r.snapshots = append(t.r.snapshots, span{t0: t0 - t.rotate, t1: t1})
	t.r.mu.Unlock()
	return err
}

// newSpan is one mechanism construction, attributed by session seed.
type newSpan struct {
	seed   uint64
	t0, t1 int64
}

// registry returns a copy of mech.Default whose factories wrap each
// instance they build in a tracedInstance.
func (r *recorder) registry() *mech.Registry {
	reg := mech.NewRegistry()
	for _, f := range mech.Default.Factories() {
		build := f.New
		f.New = func(p mech.Params) (mech.Instance, error) {
			t0 := nowNS()
			inst, err := build(p)
			t1 := nowNS()
			if err != nil {
				return nil, err
			}
			ti := &tracedInstance{Instance: inst, seed: p.Seed}
			r.mu.Lock()
			r.news = append(r.news, newSpan{seed: p.Seed, t0: t0, t1: t1})
			r.insts = append(r.insts, ti)
			r.mu.Unlock()
			return ti, nil
		}
		reg.MustRegister(f)
	}
	return reg
}

// mechSpan covers a run of consecutive Answer calls on one instance —
// one query batch — with the time spent inside Answer summed in busy.
type mechSpan struct {
	t0, t1, busy     int64
	answers, refused int
}

// coalesceGap joins Answer calls into one span when the gap between them
// is shorter than any round trip, so a batch is one span, not hundreds.
const coalesceGap = 5000 // ns

// tracedInstance times Answer. The session layer serializes calls on an
// instance, so its span list needs no lock; it is read only after the
// server has shut down.
type tracedInstance struct {
	mech.Instance
	seed  uint64
	spans []mechSpan
}

func (ti *tracedInstance) Answer(q mech.Query) (mech.Result, bool, error) {
	t0 := nowNS()
	res, refused, err := ti.Instance.Answer(q)
	t1 := nowNS()
	n := len(ti.spans)
	if n == 0 || t0-ti.spans[n-1].t1 > coalesceGap {
		ti.spans = append(ti.spans, mechSpan{t0: t0})
		n++
	}
	sp := &ti.spans[n-1]
	sp.t1 = t1
	sp.busy += t1 - t0
	sp.answers++
	if refused {
		sp.refused++
	}
	return res, refused, err
}
