package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/dpgo/svt/client"
)

// edgeKind names the serving edge a workload's analysts talk to.
type edgeKind string

const (
	edgeWire edgeKind = "wire"
	edgeHTTP edgeKind = "http"
)

// analysts is the number of closed-loop analyst goroutines, one per vCPU
// of the reference box. Each owns one connection and keeps exactly one
// request outstanding: the paper's interactive setting, where the next
// query is chosen only after the last answer is seen.
const analysts = 2

// mechanisms is the SVT family every workload mixes across.
var mechanisms = []string{"sparse", "proposed", "dpbook", "esvt"}

// workload is one traffic mix. README.md records why each exists.
type workload struct {
	name string
	edge edgeKind
	// sessions is the number of long-lived sessions per analyst, created
	// during set-up (0 for lifecycle workloads, which create as they go).
	sessions int
	// batch is the fixed query batch size; 0 draws 1..maxLifecycleBatch.
	batch int
	// zipf skews session picks; otherwise picks are uniform.
	zipf bool
	// cutoff is every session's positive-outcome cutoff c.
	cutoff int
	// lifecycle makes each analyst loop create → query batches until the
	// session halts → status → delete.
	lifecycle bool
	// warmup is the per-analyst step count run during set-up, so pools,
	// caches and the heap reach steady state before the timed window.
	warmup int
}

const maxLifecycleBatch = 16

var workloads = []workload{
	{
		// 512 sessions per connection stays under the wire edge's
		// 4,096-entry session-ID intern cap. The cutoff exceeds the
		// number of requests two closed-loop analysts can send in a run,
		// so no session halts.
		name: "wire-interactive", edge: edgeWire, sessions: 512, batch: 1,
		zipf: true, cutoff: 1 << 21, warmup: 2000,
	},
	{
		// 8,192 sessions per connection is past the intern cap. Uniform
		// picks spread about a thousand answers over each session per
		// run, far below the cutoff.
		name: "wire-batch", edge: edgeWire, sessions: 8192, batch: 256,
		cutoff: 1 << 16, warmup: 64,
	},
	{
		name: "http-lifecycle", edge: edgeHTTP, lifecycle: true,
		cutoff: 8, warmup: 2000,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// splitmix is the SplitMix64 finalizer: it turns structured inputs
// (seed, analyst, session index) into independent-looking 64-bit values.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// gen is one analyst's input generator. Everything it produces is a
// function of the workload seed, the analyst index and, for lifecycle
// workloads, which sessions have halted — never of timing — so a replay
// against the reference reproduces the same inputs.
type gen struct {
	w       *workload
	seed    uint64
	analyst int
	r       *rand.Rand
	zipf    *rand.Zipf
}

func newGen(w *workload, seed uint64, analyst int) *gen {
	g := &gen{w: w, seed: seed, analyst: analyst}
	g.r = rand.New(rand.NewPCG(splitmix(seed), splitmix(uint64(analyst)+1)))
	if w.zipf {
		g.zipf = rand.NewZipf(g.r, 1.1, 1, uint64(w.sessions-1))
	}
	return g
}

// session returns the create parameters of the analyst's k-th session.
// It draws from its own stream, so it does not depend on call order.
func (g *gen) session(k int) client.CreateParams {
	key := splitmix(g.seed ^ splitmix(uint64(g.analyst)<<32|uint64(k)))
	r := rand.New(rand.NewPCG(key, 0x5e55))
	m := mechanisms[r.IntN(len(mechanisms))]
	p := client.CreateParams{
		Mechanism:    m,
		Epsilon:      []float64{0.5, 1, 2}[r.IntN(3)],
		MaxPositives: g.w.cutoff,
		Threshold:    client.Float(float64(r.IntN(1000))),
		Seed:         key | 1, // 0 would mean crypto-seeded
	}
	switch m {
	case "sparse":
		if r.IntN(2) == 0 {
			p.AnswerFraction = 0.5
		}
		p.Monotonic = r.IntN(4) == 0
	case "esvt":
		p.Monotonic = r.IntN(4) == 0
	}
	return p
}

// pick returns the analyst-local index of the next session to query.
func (g *gen) pick() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.r.IntN(g.w.sessions)
}

// batchSize returns the next batch's length.
func (g *gen) batchSize() int {
	if g.w.batch > 0 {
		return g.w.batch
	}
	return 1 + g.r.IntN(maxLifecycleBatch)
}

// items fills a batch of query items; thresholds backs the items' own
// thresholds. Half carry their own threshold; the rest use the session
// default, so both resolution paths run. Values sit around the
// threshold; drift moves them up, which makes positives likelier batch
// by batch and bounds how long a lifecycle session takes to halt.
func (g *gen) items(p *client.CreateParams, items []client.QueryItem, thresholds []float64, drift float64) {
	for i := range items {
		th := *p.Threshold
		items[i].Threshold = nil
		if g.r.IntN(2) == 0 {
			th += float64(g.r.IntN(17) - 8)
			thresholds[i] = th
			items[i].Threshold = &thresholds[i]
		}
		items[i].Query = th + 40*g.r.Float64() - 30 + drift
	}
}
