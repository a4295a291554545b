package main

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
)

// tamperEdge is a reference edge with one deliberate defect, standing in
// for a server that releases one wrong answer, seeds a session off by
// one, or misreports a status.
type tamperEdge struct {
	*refEdge
	flipQuery  int // flip the first answer of the n-th query (1-based)
	seedOffset uint64
	badStatus  bool
	queries    int
}

func (t *tamperEdge) create(p client.CreateParams) (string, error) {
	p.Seed += t.seedOffset
	return t.refEdge.create(p)
}

func (t *tamperEdge) query(id string, items []client.QueryItem) (*client.BatchResult, error) {
	br, err := t.refEdge.query(id, items)
	t.queries++
	if err == nil && t.queries == t.flipQuery && len(br.Results) > 0 {
		br.Results[0].Above = !br.Results[0].Above
	}
	return br, err
}

func (t *tamperEdge) status(id string) (*client.SessionStatus, error) {
	st, err := t.refEdge.status(id)
	if err == nil && t.badStatus {
		st.Remaining++
	}
	return st, err
}

// served runs an analyst over e for a workload's set-up and steps.
func served(w *workload, seed uint64, e edge, steps int) *analyst {
	a := newAnalyst(w, seed, 0, e, nil)
	a.setup()
	a.phase = phaseWindow
	for a.steps < steps {
		a.step()
	}
	a.check(0)
	return a
}

func TestReferenceCheckCatchesDefects(t *testing.T) {
	for _, w := range workloads {
		small := w
		if small.sessions > 0 {
			small.sessions = 16
		}
		steps := 200
		cases := []struct {
			name string
			e    edge
			bad  bool
		}{
			{"faithful", newRefEdge(), false},
			{"one answer flipped", &tamperEdge{refEdge: newRefEdge(), flipQuery: 37}, true},
			{"seed off by one", &tamperEdge{refEdge: newRefEdge(), seedOffset: 1}, true},
			{"status remaining off by one", &tamperEdge{refEdge: newRefEdge(), badStatus: true}, true},
		}
		for _, c := range cases {
			t.Run(w.name+"/"+c.name, func(t *testing.T) {
				got := served(&small, 7, c.e, steps)
				n, msgs := compare(got, got.replay(7, 0))
				if c.bad && n == 0 {
					t.Fatalf("defect not detected")
				}
				if !c.bad && n != 0 {
					t.Fatalf("faithful run reported %d mismatches: %v", n, msgs)
				}
			})
		}
	}
}

// TestRunPhaseChecksServedAnswers runs a short phase against the real
// server on both edges: it must match the reference with no failures,
// before and after restart, and a replay with the seed off by one must
// not.
func TestRunPhaseChecksServedAnswers(t *testing.T) {
	for _, name := range []string{"wire-batch", "http-lifecycle"} {
		t.Run(name, func(t *testing.T) {
			w, _ := lookupWorkload(name)
			small := *w
			if small.sessions > 0 {
				small.sessions, small.batch = 64, 8
			}
			small.warmup = 10
			var done, running atomic.Int64
			o := &runOpts{w: &small, seed: 3, window: 300 * time.Millisecond, dir: t.TempDir(),
				setups: 2, recoveries: 2, done: &done, running: &running}
			out, err := runPhase(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range out.analysts {
				if a.failed != 0 {
					t.Fatalf("failed calls: %v", a.errs)
				}
			}
			if out.mismatched != 0 {
				t.Fatalf("mismatches: %v", out.mismatches)
			}
			if len(out.setup) != 2 || len(out.recovery) != 2 || out.answers() == 0 {
				t.Fatalf("setups %d, recoveries %d, answers %d", len(out.setup), len(out.recovery), out.answers())
			}

			_, mgr, wal, err := reopen(o.dir+"/wal-1", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			defer mgr.Close()
			refs := make([]*analyst, len(out.analysts))
			for i, a := range out.analysts {
				refs[i] = a.replay(o.seed, i)
			}
			if n, msgs := checkRecovered(mgr, out.analysts, refs); n != 0 {
				t.Fatalf("restart check of a faithful run: %v", msgs)
			}
			for i, a := range out.analysts {
				refs[i] = a.replay(o.seed+1, i)
			}
			if n, _ := checkRecovered(mgr, out.analysts, refs); n == 0 {
				t.Fatal("restart check passed against a reference seeded off by one")
			}
			for i, a := range out.analysts {
				refs[i] = a.replay(o.seed, i)
			}
			if small.lifecycle {
				return // a lifecycle run may end with every session deleted
			}
			mgr.Delete(out.analysts[0].sessions[0].id)
			if n, _ := checkRecovered(mgr, out.analysts, refs); n == 0 {
				t.Fatal("restart check missed a lost session")
			}
		})
	}
}
