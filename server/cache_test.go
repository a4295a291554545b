package server

import (
	"reflect"
	"testing"
	"time"
)

// cacheCreate is a sparse session opted into the response cache.
func cacheCreate(size int) CreateParams {
	return CreateParams{Mechanism: MechSparse, Epsilon: 1, MaxPositives: 100, CacheSize: size}
}

// TestCacheSizeValidation pins the opt-in gate: bounds, the capability
// requirement, and the seed exclusion.
func TestCacheSizeValidation(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	cases := []struct {
		name string
		p    CreateParams
	}{
		{"negative", func() CreateParams { p := cacheCreate(-1); return p }()},
		{"too large", cacheCreate(MaxCacheSize + 1)},
		{"seeded", func() CreateParams {
			p := cacheCreate(8)
			p.Seed = 7
			return p
		}()},
		{"no monotonic capability", CreateParams{
			Mechanism: MechPMW, Epsilon: 1, MaxPositives: 3, CacheSize: 8,
			Threshold: ptr(50.0), Histogram: []float64{1, 2, 3},
		}},
	}
	for _, tc := range cases {
		if _, err := m.Create(tc.p); err == nil {
			t.Errorf("%s: cacheSize accepted", tc.name)
		}
	}
	if _, err := m.Create(cacheCreate(8)); err != nil {
		t.Fatalf("valid cacheSize rejected: %v", err)
	}
}

// TestCachedSessionServesRepeats: through the manager, a repeated
// identical ⊥ query answers from the cache — no draws, no budget movement —
// and the session keeps serving and journaling correctly.
func TestCachedSessionServesRepeats(t *testing.T) {
	m := NewSessionManager(ManagerConfig{SweepInterval: time.Hour})
	defer m.Close()
	s, err := m.Create(cacheCreate(16))
	if err != nil {
		t.Fatal(err)
	}
	// Probe for the cache wrapper by capability (hit accounting), not by
	// concrete type: server code must stay free of mechanism-type asserts.
	if _, ok := s.inst.(interface{ Hits() uint64 }); !ok {
		t.Fatalf("session instance is %T, want a cache-wrapped instance with Hits()", s.inst)
	}
	if _, err := m.Query(s.ID(), sureNegative()); err != nil {
		t.Fatal(err)
	}
	drawsBefore, _ := s.inst.Draws()
	res, err := m.Query(s.ID(), sureNegative())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].Above {
		t.Fatalf("cached repeat answered %+v", res)
	}
	if drawsAfter, _ := s.inst.Draws(); drawsAfter != drawsBefore {
		t.Fatal("cached repeat consumed noise")
	}
	st := s.Status()
	if st.Answered != 2 || st.Positives != 0 {
		t.Fatalf("status after cached repeat: %+v", st)
	}
}

// TestCachedSessionSurvivesRestart: cacheSize is journaled with the create
// params, so a recovered session is rebuilt WITH its (cold) cache and the
// budget accounting intact.
func TestCachedSessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1, st := openWALManager(t, dir)
	s := mustCreate(t, m1, cacheCreate(16))
	mustQuery(t, m1, s.ID(), sureNegative())
	mustQuery(t, m1, s.ID(), sureNegative()) // cache hit
	want := durableStatus(mustStatus(t, m1, s.ID()))
	m1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _ := openWALManager(t, dir)
	got, ok := m2.Get(s.ID())
	if !ok {
		t.Fatal("cached session not recovered")
	}
	if _, isCached := got.inst.(interface{ Hits() uint64 }); !isCached {
		t.Fatalf("recovered instance is %T, want a cache-wrapped instance with Hits()", got.inst)
	}
	if gotSt := durableStatus(got.Status()); !reflect.DeepEqual(gotSt, want) {
		t.Fatalf("recovered status:\n got  %+v\n want %+v", gotSt, want)
	}
	// The rebuilt cache is cold but serving works.
	mustQuery(t, m2, s.ID(), sureNegative())
}
