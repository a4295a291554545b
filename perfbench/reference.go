package main

import (
	"fmt"
	"math"
	"strconv"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/dp"
	"github.com/dpgo/svt/mech"
)

// refEdge serves the analyst API in process from mech.Default instances,
// with the session layer's semantics: a batch is validated whole before
// any item is answered, per-query thresholds override the session
// default, and a batch stops at the first refused answer. Replaying an
// analyst against it yields the answers the server must have released.
type refEdge struct {
	sessions map[string]*refSession
	next     int
}

type refSession struct {
	mech      string
	inst      mech.Instance
	threshold float64 // NaN when the session has no default
	answered  int
	positives int
	budget    client.Budget
}

func newRefEdge() *refEdge { return &refEdge{sessions: make(map[string]*refSession)} }

func (r *refEdge) create(p client.CreateParams) (string, error) {
	inst, err := mech.Default.New(p.Mechanism, mech.Params{
		Epsilon:        p.Epsilon,
		Sensitivity:    p.Sensitivity,
		MaxPositives:   p.MaxPositives,
		Threshold:      p.Threshold,
		Monotonic:      p.Monotonic,
		AnswerFraction: p.AnswerFraction,
		Seed:           p.Seed,
	})
	if err != nil {
		return "", err
	}
	s := &refSession{mech: p.Mechanism, inst: inst, threshold: math.NaN()}
	if p.Threshold != nil {
		s.threshold = *p.Threshold
	}
	b := &s.budget
	b.Eps1, b.Eps2, b.Eps3 = inst.Budgets()
	var parts []float64
	for _, e := range []float64{b.Eps1, b.Eps2, b.Eps3} {
		if e > 0 {
			parts = append(parts, e)
		}
	}
	if b.Total, err = dp.BasicComposition(parts...); err != nil {
		return "", err
	}
	r.next++
	id := "ref-" + strconv.Itoa(r.next)
	r.sessions[id] = s
	return id, nil
}

func (r *refEdge) query(id string, items []client.QueryItem) (*client.BatchResult, error) {
	s, ok := r.sessions[id]
	if !ok {
		return nil, errNotFound
	}
	qs := make([]mech.Query, len(items))
	for i, it := range items {
		qs[i] = mech.Query{Value: it.Query, Threshold: s.threshold}
		if it.Threshold != nil {
			qs[i].Threshold = *it.Threshold
		}
		if err := s.inst.Validate(qs[i]); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	out := &client.BatchResult{Results: make([]client.QueryResult, 0, len(items))}
	for _, q := range qs {
		res, refused, err := s.inst.Answer(q)
		if err != nil {
			return nil, err
		}
		if refused {
			break
		}
		out.Results = append(out.Results, client.QueryResult{
			Above: res.Above, Numeric: res.Numeric, Value: res.Value,
			FromSynthetic: res.FromSynthetic, Exhausted: res.Exhausted,
		})
		s.answered++
		if res.SpentPositive {
			s.positives++
		}
	}
	out.Halted = s.inst.Halted()
	out.Remaining = s.inst.Remaining()
	return out, nil
}

func (r *refEdge) status(id string) (*client.SessionStatus, error) {
	s, ok := r.sessions[id]
	if !ok {
		return nil, errNotFound
	}
	return &client.SessionStatus{
		ID:        id,
		Mechanism: s.mech,
		Answered:  s.answered,
		Positives: s.positives,
		Remaining: s.inst.Remaining(),
		Halted:    s.inst.Halted(),
		Budget:    s.budget,
	}, nil
}

func (r *refEdge) remove(id string) error {
	if _, ok := r.sessions[id]; !ok {
		return errNotFound
	}
	delete(r.sessions, id)
	return nil
}

func (r *refEdge) close() error { return nil }

// digest folds one released batch into a session's running 64-bit
// digest: every answer's flags and value bits, then the batch's length,
// halt flag and remaining count. Two streams agree on the digest only if
// they agree on every one of those fields, in order.
func digest(h uint64, br *client.BatchResult) uint64 {
	mix := func(h, x uint64) uint64 { return splitmix(h ^ x) }
	for _, r := range br.Results {
		var flags uint64
		for i, b := range []bool{r.Above, r.Numeric, r.FromSynthetic, r.Exhausted} {
			if b {
				flags |= 1 << i
			}
		}
		h = mix(h, flags)
		h = mix(h, math.Float64bits(r.Value))
	}
	h = mix(h, uint64(len(br.Results)))
	if br.Halted {
		h = mix(h, 1)
	}
	return mix(h, uint64(br.Remaining))
}

// statusDigest folds a status into a session's digest: answered,
// positives, remaining, halted and every part of the budget split.
func statusDigest(h uint64, st *client.SessionStatus) uint64 {
	for _, x := range []uint64{
		uint64(st.Answered), uint64(st.Positives), uint64(st.Remaining),
		math.Float64bits(st.Budget.Eps1), math.Float64bits(st.Budget.Eps2),
		math.Float64bits(st.Budget.Eps3), math.Float64bits(st.Budget.Total),
	} {
		h = splitmix(h ^ x)
	}
	if st.Halted {
		h = splitmix(h ^ 1)
	}
	return h
}

// sameStatus reports the first field where a served status differs from
// the reference's: mechanism, answered, positives, remaining, halted or
// any part of the budget split, compared bit for bit.
func sameStatus(got, want *client.SessionStatus) error {
	switch {
	case got.Mechanism != want.Mechanism:
		return fmt.Errorf("mechanism %q, reference %q", got.Mechanism, want.Mechanism)
	case got.Answered != want.Answered:
		return fmt.Errorf("answered %d, reference %d", got.Answered, want.Answered)
	case got.Positives != want.Positives:
		return fmt.Errorf("positives %d, reference %d", got.Positives, want.Positives)
	case got.Remaining != want.Remaining:
		return fmt.Errorf("remaining %d, reference %d", got.Remaining, want.Remaining)
	case got.Halted != want.Halted:
		return fmt.Errorf("halted %v, reference %v", got.Halted, want.Halted)
	}
	g, w := got.Budget, want.Budget
	for _, f := range []struct {
		name string
		g, w float64
	}{{"eps1", g.Eps1, w.Eps1}, {"eps2", g.Eps2, w.Eps2}, {"eps3", g.Eps3, w.Eps3}, {"total", g.Total, w.Total}} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Errorf("budget %s %v, reference %v", f.name, f.g, f.w)
		}
	}
	return nil
}
