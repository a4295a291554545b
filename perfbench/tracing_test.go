package main

import (
	"reflect"
	"testing"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// TestTracedStoreKeepsCapabilities: the manager probes its store for
// optional interfaces; the traced wrapper must expose exactly the WAL's,
// or the traced run would measure a different program.
func TestTracedStoreKeepsCapabilities(t *testing.T) {
	wal, st, err := openStore(t.TempDir(), &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	probes := map[string]func(any) bool{
		"BatchAppender": func(v any) bool { _, ok := v.(store.BatchAppender); return ok },
		"Rotator":       func(v any) bool { _, ok := v.(store.Rotator); return ok },
		"Healther":      func(v any) bool { _, ok := v.(store.Healther); return ok },
		"Instrumented":  func(v any) bool { _, ok := v.(store.Instrumented); return ok },
	}
	for name, has := range probes {
		if has(wal) != has(st) {
			t.Errorf("%s: WAL %v, traced store %v", name, has(wal), has(st))
		}
	}
}

// TestTracedRegistryKeepsMechanisms: the wrapped registry must list the
// same mechanisms with the same capabilities as mech.Default.
func TestTracedRegistryKeepsMechanisms(t *testing.T) {
	reg := (&recorder{}).registry()
	if got, want := reg.Names(), mech.Default.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names %v, want %v", got, want)
	}
	for _, f := range mech.Default.Factories() {
		g, _ := reg.Lookup(f.Name)
		if g.Caps != f.Caps || g.Summary != f.Summary {
			t.Errorf("%s: caps %+v summary %q, want %+v %q", f.Name, g.Caps, g.Summary, f.Caps, f.Summary)
		}
	}
}

func TestServiceSpans(t *testing.T) {
	c := &tracedConn{
		// request 1 arrives in two reads; its response is split over two
		// writes; request 2 arrives in one read.
		reads:  []ioEvent{{t1: 10}, {t1: 12}, {t1: 50}},
		writes: []ioEvent{{t0: 20, t1: 22}, {t0: 23, t1: 25}, {t0: 60, t1: 61}},
	}
	got := serviceSpans(c)
	want := []serviceSpan{{t0: 10, t1: 25, writes: 2}, {t0: 50, t1: 61, writes: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestCostsSumToRoundTrip: the cost table's rows partition each round
// trip.
func TestCostsSumToRoundTrip(t *testing.T) {
	a := &analyst{traced: true, calls: []call{{kind: opQuery, phase: phaseWindow, t0: 0, t1: 100}}}
	s := &analystSpans{
		cwrites: []ioEvent{{t0: 5, t1: 9, n: 30}},
		creads:  []ioEvent{{t0: 90, t1: 90, n: 40}},
		service: []serviceSpan{{t0: 20, t1: 80, writes: 1}},
		mech:    []mechSpan{{t0: 30, t1: 40, busy: 8, answers: 2}},
		store:   []storeSpan{{t0: 50, t1: 55, events: 1}},
	}
	cs := costs(a, s)
	if len(cs) != 1 {
		t.Fatalf("%d costs", len(cs))
	}
	c := cs[0]
	if sum := c.clientSelf + c.clientSock + c.serverSelf + c.mech + c.store + c.unattributed; sum != c.rtt {
		t.Fatalf("parts sum to %d, round trip %d: %+v", sum, c.rtt, c)
	}
	want := callCost{kind: opQuery, rtt: 100, service: 60, clientSelf: 15, clientSock: 4, serverSelf: 47, mech: 8, store: 5,
		unattributed: 21, hasService: true, clientWrites: 1, clientBytes: 70, serverWrites: 1, answers: 2, appends: 1}
	if c != want {
		t.Fatalf("got %+v, want %+v", c, want)
	}
}
