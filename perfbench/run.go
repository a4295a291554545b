package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/store"
)

// runOpts configures one measured phase: set-up (repeated), the timed
// window, the checks, and the timed restarts.
type runOpts struct {
	w      *workload
	seed   uint64
	window time.Duration
	dir    string
	setups int
	// recoveries is the minimum number of timed restarts; restarts
	// repeat until recoveryTime has passed. checkTime likewise bounds the
	// post-run status passes from below.
	recoveries   int
	recoveryTime time.Duration
	checkTime    time.Duration
	rec          *recorder // nil for an untraced phase
	done         *atomic.Int64
	running      *atomic.Int64
}

// phaseOut is what a phase measured.
type phaseOut struct {
	setup      []float64 // seconds, one per set-up
	setupCPU   []float64 // process CPU seconds, one per set-up
	createMS   []float64 // create round trips of every set-up
	createP99  []float64 // each set-up's create p99
	rssMB      float64   // peak RSS when serving ended
	analysts   []*analyst
	w0, w1     int64 // the timed window, monotonic ns
	cpu        time.Duration
	rt0, rt1   runtimeSample
	h0, h1     store.Health
	recovery   []float64 // seconds, one per restart
	mismatches []string
	mismatched int
}

func (o *phaseOut) windowSeconds() float64 { return float64(o.w1-o.w0) / 1e9 }

func (o *phaseOut) answers() int {
	n := 0
	for _, a := range o.analysts {
		n += a.answers
	}
	return n
}

// parallel runs f(0..n-1) concurrently and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

func closeEdges(as []*analyst) {
	for _, a := range as {
		a.e.close()
	}
}

// setUp starts a host, dials the analysts, creates the workload's
// sessions and runs the warm-up steps.
func setUp(o *runOpts, dir string) (*host, []*analyst, error) {
	h, err := startHost(dir, o.rec)
	if err != nil {
		return nil, nil, err
	}
	as := make([]*analyst, analysts)
	for i := range as {
		dial := plainDial
		if o.rec != nil {
			dial = o.rec.dialer(i)
		}
		tenant := fmt.Sprintf("analyst-%d", i)
		var e edge
		if o.w.edge == edgeWire {
			we, err := dialWire(h.wireAddr, tenant, dial)
			if err != nil {
				closeEdges(as[:i])
				h.stop()
				return nil, nil, err
			}
			e = we
		} else {
			e = dialHTTP(h.httpAddr, tenant, dial)
		}
		as[i] = newAnalyst(o.w, o.seed, i, e, o.done)
		as[i].traced = o.rec != nil
		as[i].reserve(o.window)
	}
	parallel(len(as), func(i int) {
		a := as[i]
		a.setup()
		a.phase = phaseWarmup
		for a.steps < o.w.warmup {
			a.step()
		}
	})
	return h, as, nil
}

func runPhase(o *runOpts) (*phaseOut, error) {
	out := &phaseOut{}
	var h *host
	var dir string
	for i := 0; i < o.setups; i++ {
		dir = filepath.Join(o.dir, fmt.Sprintf("wal-%d", i))
		t0, c0 := time.Now(), cpuTime()
		hh, as, err := setUp(o, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		out.setupCPU = append(out.setupCPU, (cpuTime() - c0).Seconds())
		creates := latencies(as, opCreate, phaseSetup, 1e6)
		out.createMS = append(out.createMS, creates...)
		out.createP99 = append(out.createP99, quantile(creates, 0.99))
		if i == o.setups-1 {
			h, out.analysts = hh, as
			break
		}
		if err := discard(hh, as); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC() // start the next set-up from the same heap
	}
	as := out.analysts

	out.rt0, out.h0 = readRuntime(), h.wal.Health()
	cpu0 := cpuTime()
	out.w0 = nowNS()
	deadline := out.w0 + int64(o.window)
	o.running.Store(int64(len(as)))
	parallel(len(as), func(i int) {
		as[i].phase = phaseWindow
		as[i].run(deadline)
		o.running.Add(-1)
	})
	out.w1 = nowNS()
	out.cpu = cpuTime() - cpu0
	out.rt1, out.h1 = readRuntime(), h.wal.Health()

	parallel(len(as), func(i int) { as[i].check(o.checkTime) })
	out.rssMB = peakRSSMB()
	closeEdges(as)
	if err := h.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	refs := make([]*analyst, len(as))
	parallel(len(as), func(i int) { refs[i] = as[i].replay(o.seed, i) })
	for i := range as {
		n, msgs := compare(as[i], refs[i])
		out.mismatched += n
		out.mismatches = append(out.mismatches, msgs...)
	}

	restarts := time.Now()
	for r := 0; r < o.recoveries || time.Since(restarts) < o.recoveryTime; r++ {
		d, mgr, wal, err := reopen(dir, o.rec)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", r, err)
		}
		out.recovery = append(out.recovery, d.Seconds())
		if r == 0 {
			n, msgs := checkRecovered(mgr, as, refs)
			out.mismatched += n
			out.mismatches = append(out.mismatches, msgs...)
		}
		mgr.Close()
		if err := wal.Close(); err != nil {
			return nil, fmt.Errorf("restart %d: closing wal: %w", r, err)
		}
	}
	return out, nil
}

// discard tears down a set-up that was only timed.
func discard(h *host, as []*analyst) error {
	closeEdges(as)
	return h.stop()
}

// checkRecovered checks the manager reopened from the run's WAL: every
// live session's status must equal the reference, bit for bit, and every
// deleted session must be gone.
func checkRecovered(mgr *server.SessionManager, as, refs []*analyst) (int, []string) {
	var n int
	var msgs []string
	for i, a := range as {
		if len(a.sessions) != len(refs[i].sessions) {
			n++
			msgs = append(msgs, fmt.Sprintf("after restart: analyst %d has %d sessions, reference %d", i, len(a.sessions), len(refs[i].sessions)))
			continue
		}
		for k := range a.sessions {
			s, ref := &a.sessions[k], &refs[i].sessions[k]
			sess, ok := mgr.Get(s.id)
			var err error
			switch {
			case ref.deleted && ok:
				err = errors.New("deleted session is live again")
			case ref.deleted:
			case !ok:
				err = errors.New("live session lost")
			case ref.status == nil:
				err = errors.New("no reference status")
			default:
				st := sess.Status()
				err = sameStatus(&client.SessionStatus{
					Mechanism: string(st.Mechanism),
					Answered:  st.Answered,
					Positives: st.Positives,
					Remaining: st.Remaining,
					Halted:    st.Halted,
					Budget:    client.Budget(st.Budget),
				}, ref.status)
			}
			if err != nil {
				n++
				if len(msgs) < 10 {
					msgs = append(msgs, fmt.Sprintf("after restart: analyst %d session %d (%s): %v", i, k, s.id, err))
				}
			}
		}
	}
	return n, msgs
}
