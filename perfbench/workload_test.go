package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/dpgo/svt/client"
)

// logEdge records every input an analyst sends — sessions, mechanisms,
// parameters, query values, thresholds, batch sizes — as JSON lines, and
// answers from the reference.
type logEdge struct {
	*refEdge
	log bytes.Buffer
}

func (l *logEdge) record(op string, v any) {
	b, _ := json.Marshal(v)
	l.log.WriteString(op + " ")
	l.log.Write(b)
	l.log.WriteByte('\n')
}

func (l *logEdge) create(p client.CreateParams) (string, error) {
	l.record("create", p)
	return l.refEdge.create(p)
}

func (l *logEdge) query(id string, items []client.QueryItem) (*client.BatchResult, error) {
	l.record("query "+id, items)
	return l.refEdge.query(id, items)
}

func (l *logEdge) status(id string) (*client.SessionStatus, error) {
	l.record("status", id)
	return l.refEdge.status(id)
}

func (l *logEdge) remove(id string) error {
	l.record("delete", id)
	return l.refEdge.remove(id)
}

func opSequence(w *workload, seed uint64, analyst, steps int) []byte {
	e := &logEdge{refEdge: newRefEdge()}
	a := newAnalyst(w, seed, analyst, e, nil)
	a.setup()
	for a.steps < steps {
		a.step()
	}
	return e.log.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			first := opSequence(w, 42, 1, 500)
			if again := opSequence(w, 42, 1, 500); !bytes.Equal(first, again) {
				t.Fatal("the same seed produced a different op sequence")
			}
			if other := opSequence(w, 43, 1, 500); bytes.Equal(first, other) {
				t.Fatal("a different seed produced the same op sequence")
			}
			if other := opSequence(w, 42, 0, 500); bytes.Equal(first, other) {
				t.Fatal("two analysts produced the same op sequence")
			}
		})
	}
}

// TestWorkloadShapes pins the properties the README promises.
func TestWorkloadShapes(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := newAnalyst(w, 5, 0, newRefEdge(), nil)
		a.setup()
		mechs := map[string]int{}
		numeric := 0
		for a.steps < 3000 {
			a.step()
		}
		for _, s := range a.sessions {
			mechs[s.params.Mechanism]++
			if s.params.AnswerFraction > 0 {
				numeric++
			}
		}
		if len(mechs) != len(mechanisms) || numeric == 0 {
			t.Errorf("%s: mechanisms %v, %d numeric-release sessions", w.name, mechs, numeric)
		}
		if a.failed != 0 {
			t.Errorf("%s: %d failed calls: %v", w.name, a.failed, a.errs)
		}
		halted := 0
		for _, s := range a.sessions {
			if s.halted {
				halted++
			}
		}
		switch {
		case w.lifecycle && halted < 100:
			t.Errorf("%s: only %d sessions halted in 3000 steps", w.name, halted)
		case !w.lifecycle && halted != 0:
			t.Errorf("%s: %d sessions halted", w.name, halted)
		}
	}
}
