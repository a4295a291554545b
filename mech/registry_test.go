package mech

import (
	"sort"
	"strings"
	"testing"
)

func TestDefaultRegistryBuiltins(t *testing.T) {
	names := Default.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"sparse", "proposed", "dpbook", "pmw", "esvt"} {
		if _, ok := Default.Lookup(want); !ok {
			t.Errorf("built-in mechanism %q not registered (have %v)", want, names)
		}
	}
	// The broken historical variants must never be servable.
	for _, banned := range []string{"roth11", "leeclifton", "stoddard", "chen", "gptt"} {
		if _, ok := Default.Lookup(banned); ok {
			t.Errorf("non-private variant %q is registered", banned)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	ok := Factory{Name: "x", New: func(Params) (Instance, error) { return nil, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate registration accepted")
	}
	for _, bad := range []Factory{
		{Name: "", New: ok.New},
		{Name: "Upper", New: ok.New},
		{Name: "with space", New: ok.New},
		{Name: "slash/y", New: ok.New},
		{Name: "nonew"},
	} {
		if err := r.Register(bad); err == nil {
			t.Errorf("bad factory %+v accepted", bad)
		}
	}
}

func TestRegistryUnknownMechanism(t *testing.T) {
	_, err := Default.New("no-such-mechanism", Params{Epsilon: 1, MaxPositives: 1})
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if !strings.Contains(err.Error(), "no-such-mechanism") || !strings.Contains(err.Error(), "esvt") {
		t.Errorf("error %q should name the unknown mechanism and list the registered ones", err)
	}
}

// TestFactoriesValidateTheirOwnParams pins per-factory parameter
// validation: knobs a mechanism does not consume must be rejected, not
// silently ignored — an analyst who believes they got a refinement must
// not run without it.
func TestFactoriesValidateTheirOwnParams(t *testing.T) {
	th := 5.0
	hist := []float64{1, 2, 3}
	cases := []struct {
		name string
		p    Params
	}{
		{"sparse", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}},
		{"sparse", Params{Epsilon: 0, MaxPositives: 1}},
		{"proposed", Params{Epsilon: 1, MaxPositives: 1, Monotonic: true}},
		{"proposed", Params{Epsilon: 1, MaxPositives: 1, AnswerFraction: 0.2}},
		{"dpbook", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}},
		{"dpbook", Params{Epsilon: 1, MaxPositives: 0}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 1, AnswerFraction: 0.2}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 0}},
		{"pmw", Params{Epsilon: 1, MaxPositives: 1, Histogram: hist}}, // no threshold
		{"pmw", Params{Epsilon: 1, MaxPositives: 1, Threshold: &th}},  // no histogram
		{"pmw", Params{Epsilon: 1, MaxPositives: 1, Threshold: &th, Histogram: hist, Monotonic: true}},
	}
	for i, tc := range cases {
		if _, err := Default.New(tc.name, tc.p); err == nil {
			t.Errorf("case %d: %s accepted %+v", i, tc.name, tc.p)
		}
	}

	// The accepted shapes still work, including the esvt monotonic
	// refinement and sensitivity defaulting.
	good := []struct {
		name string
		p    Params
	}{
		{"esvt", Params{Epsilon: 1, MaxPositives: 3, Monotonic: true}},
		{"esvt", Params{Epsilon: 1, MaxPositives: 3, Sensitivity: 2}},
		{"sparse", Params{Epsilon: 1, MaxPositives: 3, Monotonic: true, AnswerFraction: 0.25}},
	}
	for i, tc := range good {
		if _, err := Default.New(tc.name, tc.p); err != nil {
			t.Errorf("good case %d: %s rejected %+v: %v", i, tc.name, tc.p, err)
		}
	}
}

// TestSyntheticReleaserMatchesNeedsHistogram pins the capability gate the
// session status leans on: every histogram mediator releases its synthetic
// histogram, and no other mechanism does, so a future mediator cannot
// silently leave its status field out.
func TestSyntheticReleaserMatchesNeedsHistogram(t *testing.T) {
	for _, f := range Default.Factories() {
		p := conformanceParams(f, 1)
		r, ok := mustNew(t, f, p).(SyntheticReleaser)
		if ok != f.Caps.NeedsHistogram {
			t.Errorf("%s: implements SyntheticReleaser = %v, NeedsHistogram = %v", f.Name, ok, f.Caps.NeedsHistogram)
			continue
		}
		if ok && len(r.Synthetic()) != len(p.Histogram) {
			t.Errorf("%s: synthetic histogram has %d buckets, want %d", f.Name, len(r.Synthetic()), len(p.Histogram))
		}
	}
}
