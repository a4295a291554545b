package server

// Seeded-session crash-reproducibility tests: the Seed contract promises a
// deterministic answer stream, and codec v2 makes that contract survive a
// crash. A seeded session killed mid-stream and recovered must produce a
// remaining answer stream BIT-IDENTICAL to an uninterrupted run — the
// re-seeded noise sources are fast-forwarded past every journaled draw, so
// the continuation uses exactly the draws the uninterrupted run would have,
// and never re-emits one the analyst may already have observed.

import (
	"reflect"
	"testing"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// replayMechanisms is every servable mechanism, taken from the default
// registry so a newly registered mechanism is automatically covered by the
// crash-replay matrix (esvt rides in exactly this way — no session.go or
// hand-maintained list involved).
func replayMechanisms() []Mechanism {
	var out []Mechanism
	for _, name := range mech.Default.Names() {
		out = append(out, Mechanism(name))
	}
	return out
}

// replayScript builds a deterministic, mechanism-appropriate query script
// whose outcomes genuinely depend on the noise: thresholds sit on top of
// the query values, so each comparison is a coin flip decided by the
// Laplace draws.
func replayScript(mech Mechanism, n int) [][]QueryItem {
	script := make([][]QueryItem, n)
	for i := range script {
		if mech == MechPMW {
			script[i] = []QueryItem{{Buckets: []int{i % 6, (i + 3) % 6}}}
			continue
		}
		// Alternate tight and loose margins around the threshold.
		q := float64(i%5) - 2
		script[i] = []QueryItem{{Query: q, Threshold: ptr(0.0)}}
	}
	return script
}

// replayParams returns seeded create parameters for every mechanism, sized
// so the script sees positives (dpbook's ρ resampling, pmw's reweights)
// without halting too early.
func replayParams(mech Mechanism, seed uint64) CreateParams {
	p := CreateParams{
		Mechanism:    mech,
		Epsilon:      1,
		MaxPositives: 12,
		Threshold:    ptr(0.0),
		Seed:         seed,
	}
	if mech == MechSparse {
		p.AnswerFraction = 0.3 // exercise ε₃ numeric releases too
	}
	if mech == MechPMW {
		p.Epsilon = 2
		p.MaxPositives = 6
		p.Threshold = ptr(20.0)
		p.Histogram = []float64{100, 10, 250, 40, 80, 20}
	}
	return p
}

// runScript feeds the script to the session and returns the flattened
// result stream.
func runScript(t *testing.T, m *SessionManager, id string, script [][]QueryItem) []QueryResult {
	t.Helper()
	var out []QueryResult
	for _, batch := range script {
		res := mustQuery(t, m, id, batch)
		out = append(out, res.Results...)
	}
	return out
}

// resultsEqual compares two released answer streams bit-for-bit.
func resultsEqual(a, b []QueryResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSeededSessionReplayBitIdentical(t *testing.T) {
	const n, kill = 40, 13
	for _, mech := range replayMechanisms() {
		for _, snapshotBeforeKill := range []bool{false, true} {
			name := string(mech)
			if snapshotBeforeKill {
				name += "/snapshotted"
			}
			t.Run(name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					script := replayScript(mech, n)
					params := replayParams(mech, seed)

					// Uninterrupted reference run: no store at all.
					ref := newTestManager(t, ManagerConfig{SnapshotInterval: -1, Store: store.NewMem()})
					refSess := mustCreate(t, ref, params)
					want := runScript(t, ref, refSess.ID(), script)

					// Interrupted run: same seed, killed after `kill`
					// batches, recovered, then continued.
					dir := t.TempDir()
					m1, st := openWALManager(t, dir)
					sess := mustCreate(t, m1, params)
					got := runScript(t, m1, sess.ID(), script[:kill])
					if snapshotBeforeKill {
						if err := m1.SnapshotNow(); err != nil {
							t.Fatal(err)
						}
						// A couple more batches so the journal tail after
						// the snapshot is non-empty when we crash.
						got = append(got, runScript(t, m1, sess.ID(), script[kill:kill+2])...)
					}
					m1.Close() // crash: no final snapshot, no store close
					_ = st

					m2, _ := openWALManager(t, dir)
					rest := script[kill:]
					if snapshotBeforeKill {
						rest = script[kill+2:]
					}
					got = append(got, runScript(t, m2, sess.ID(), rest)...)

					if !resultsEqual(got, want) {
						t.Fatalf("seed %d: killed-and-recovered stream diverged from the uninterrupted run:\n got  %+v\n want %+v",
							seed, got, want)
					}
				}
			})
		}
	}
}

// TestSeededSessionNeverReplaysPreCrashNoise is the privacy side of the
// same mechanism: the draws consumed before the kill must NOT reappear
// after recovery. With replay-from-0 the first post-restart comparison
// would reuse the first pre-crash draw; with fast-forward the post-restart
// stream picks up where the pre-crash stream stopped.
func TestSeededSessionNeverReplaysPreCrashNoise(t *testing.T) {
	params := replayParams(MechSparse, 99)
	script := replayScript(MechSparse, 24)

	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	sess := mustCreate(t, m1, params)
	pre := runScript(t, m1, sess.ID(), script[:12])
	m1.Close() // crash

	m2, _ := openWALManager(t, dir)
	replayed := runScript(t, m2, sess.ID(), script[:12])

	// Re-running the SAME queries must not reproduce the pre-crash answers:
	// that would mean the noise stream restarted at position 0. (Each
	// comparison is a near-fair coin, so 12 identical outcomes by chance is
	// ~2^-12; the numeric ε₃ releases make a coincidental match impossible.)
	if resultsEqual(pre, replayed) {
		t.Fatal("recovered session replayed its pre-crash noise stream; the realized threshold is exposed")
	}
}

// TestCrashBetweenRotationAndBaselineWrite kills the server in the
// two-phase snapshot's vulnerable window: the journal segment has rotated
// but the baseline was never written. Recovery must fall back to the
// previous generation and replay both segments, losing nothing.
func TestCrashBetweenRotationAndBaselineWrite(t *testing.T) {
	dir := t.TempDir()
	m1, st := openWALManager(t, dir)
	s := mustCreate(t, m1, sparseParams())
	mustQuery(t, m1, s.ID(), surePositive())
	if err := m1.SnapshotNow(); err != nil { // generation 2, committed
		t.Fatal(err)
	}
	mustQuery(t, m1, s.ID(), surePositive())

	// Start a snapshot and crash before its baseline write: rotate the
	// segment exactly as SnapshotNow's locked phase would, then abandon it.
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Traffic keeps flowing into the rotated segment.
	mustQuery(t, m1, s.ID(), surePositive())
	mustQuery(t, m1, s.ID(), sureNegative())
	want := durableStatus(mustStatus(t, m1, s.ID()))
	m1.Close() // crash: snap for the rotated generation never written

	m2, _ := openWALManager(t, dir)
	got := durableStatus(mustStatus(t, m2, s.ID()))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery across a torn snapshot generation lost events:\n got  %+v\n want %+v", got, want)
	}
	if got.Answered != 4 || got.Positives != 3 {
		t.Fatalf("counters %+v, want answered=4 positives=3", got)
	}
}

// TestSnapshotFailureSurfacedInStats drives SnapshotNow into failure and
// requires the failure counter and last error to reach Stats (and therefore
// GET /v1/stats).
func TestSnapshotFailureSurfacedInStats(t *testing.T) {
	dir := t.TempDir()
	m, st := openWALManager(t, dir)
	mustCreate(t, m, sparseParams())
	if err := st.Close(); err != nil { // snapshots now fail with ErrClosed
		t.Fatal(err)
	}
	if err := m.SnapshotNow(); err == nil {
		t.Fatal("snapshot against a closed store succeeded")
	}
	stats := m.Stats()
	if stats.SnapshotFailures == 0 || stats.LastSnapshotError == "" {
		t.Fatalf("stats %+v, want snapshot failure counter and last error surfaced", stats)
	}
}

// TestPMWRecoveryKeepsLearnedSynthetic requires a recovered pmw session to
// resume from its learned synthetic histogram rather than the uniform
// prior, whether the state came from a snapshot baseline or only from
// journaled progress events.
func TestPMWRecoveryKeepsLearnedSynthetic(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		name := "journal-only"
		if snapshot {
			name = "snapshotted"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m1, _ := openWALManager(t, dir)
			s := mustCreate(t, m1, pmwParams())
			// Drive updates so the synthetic histogram learns.
			for i := 0; i < 8; i++ {
				mustQuery(t, m1, s.ID(), []QueryItem{{Buckets: []int{4}}})
			}
			if s.Status().Positives == 0 {
				t.Fatal("setup: no pmw updates happened; the test would be vacuous")
			}
			learned := s.Status().Synthetic
			if snapshot {
				if err := m1.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			m1.Close() // crash

			m2, _ := openWALManager(t, dir)
			rec, ok := m2.Get(s.ID())
			if !ok {
				t.Fatal("pmw session lost across restart")
			}
			got := rec.Status().Synthetic
			for i := range learned {
				if got[i] != learned[i] {
					t.Fatalf("synthetic[%d] = %v after recovery, want learned value %v (uniform restart?)", i, got[i], learned[i])
				}
			}
		})
	}
}
