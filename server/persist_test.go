package server

// Crash-recovery tests: kill a WAL-backed manager without any orderly
// shutdown, reopen the directory, and require every live session's
// observable status — answered, positives, remaining, halted and the
// realized (ε₁, ε₂, ε₃) split — to come back identical, with consumed
// positive-outcome budget still consumed.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/store"
)

// appendUvarintForTest builds raw v1 progress payloads.
func appendUvarintForTest(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// openWALManager opens a manager journaling to dir with immediate fsync.
// Periodic snapshots are disabled so tests control compaction explicitly.
func openWALManager(t *testing.T, dir string) (*SessionManager, *store.WAL) {
	t.Helper()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(ManagerConfig{
		SweepInterval:    time.Hour,
		SnapshotInterval: -1,
		Store:            st,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, st
}

// mustCreate creates a session or fails the test.
func mustCreate(t *testing.T, m *SessionManager, p CreateParams) *Session {
	t.Helper()
	s, err := m.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustQuery runs one batch or fails the test.
func mustQuery(t *testing.T, m *SessionManager, id string, items []QueryItem) BatchResult {
	t.Helper()
	res, err := m.Query(id, items)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// durableStatus strips the fields recovery legitimately refreshes (the idle
// deadline, and the in-process monotonic clock reading that never crosses a
// restart) from a status, leaving exactly what must survive a crash.
func durableStatus(st SessionStatus) SessionStatus {
	st.ExpiresAt = time.Time{}
	st.CreatedAt = st.CreatedAt.Round(0)
	return st
}

// surePositive is a query that lands above the threshold with probability
// indistinguishable from 1 (the gap dwarfs any realistic Laplace draw).
func surePositive() []QueryItem {
	return []QueryItem{{Query: 0, Threshold: ptr(-1e12)}}
}

// sureNegative is the mirror-image certain ⊥.
func sureNegative() []QueryItem {
	return []QueryItem{{Query: 0, Threshold: ptr(1e12)}}
}

func TestRestartRecoveryAllMechanisms(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)

	sparse := mustCreate(t, m1, CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 10, Threshold: ptr(0.5),
		AnswerFraction: 0.2, Seed: 11,
	})
	proposed := mustCreate(t, m1, CreateParams{
		Mechanism: MechProposed, Epsilon: 1, MaxPositives: 8, Threshold: ptr(0.5), Seed: 12,
	})
	dpbook := mustCreate(t, m1, CreateParams{
		Mechanism: MechDPBook, Epsilon: 1, MaxPositives: 8, Threshold: ptr(0.5), Seed: 13,
	})
	pmws := mustCreate(t, m1, pmwParams())

	// Drive a mixed workload: some certain positives, some certain
	// negatives, so every counter (answered, positives, remaining) moves.
	for i := 0; i < 3; i++ {
		mustQuery(t, m1, sparse.ID(), surePositive())
		mustQuery(t, m1, proposed.ID(), surePositive())
	}
	for i := 0; i < 4; i++ {
		mustQuery(t, m1, sparse.ID(), sureNegative())
		mustQuery(t, m1, dpbook.ID(), surePositive())
	}
	for i := 0; i < 5; i++ {
		mustQuery(t, m1, pmws.ID(), []QueryItem{{Buckets: []int{i % 6}}})
	}

	ids := []string{sparse.ID(), proposed.ID(), dpbook.ID(), pmws.ID()}
	want := make(map[string]SessionStatus, len(ids))
	for _, id := range ids {
		s, ok := m1.Get(id)
		if !ok {
			t.Fatalf("session %s vanished pre-crash", id)
		}
		want[id] = durableStatus(s.Status())
	}

	// Crash: no store.Close, no flush, just abandon the manager.
	m1.Close()

	m2, _ := openWALManager(t, dir)
	if got := m2.Recovered(); got != len(ids) {
		t.Fatalf("recovered %d sessions, want %d", got, len(ids))
	}
	for _, id := range ids {
		s, ok := m2.Get(id)
		if !ok {
			t.Fatalf("session %s lost across restart", id)
		}
		if got := durableStatus(s.Status()); !reflect.DeepEqual(got, want[id]) {
			t.Errorf("session %s status diverged:\n got  %+v\n want %+v", id, got, want[id])
		}
	}

	// Recovered sessions keep serving.
	res := mustQuery(t, m2, sparse.ID(), sureNegative())
	if len(res.Results) != 1 {
		t.Fatalf("recovered sparse session refused a query: %+v", res)
	}
}

func TestRestartRecoveryRejectsPositivesAfterHalt(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	s := mustCreate(t, m1, CreateParams{
		Mechanism: MechSparse, Epsilon: 1, MaxPositives: 3, Threshold: ptr(0), Seed: 5,
	})
	// Exhaust the positive budget pre-crash.
	for i := 0; i < 3; i++ {
		res := mustQuery(t, m1, s.ID(), surePositive())
		if len(res.Results) != 1 || !res.Results[0].Above {
			t.Fatalf("setup query %d: %+v", i, res)
		}
	}
	st := s.Status()
	if !st.Halted || st.Remaining != 0 || st.Positives != 3 {
		t.Fatalf("pre-crash status %+v, want halted with 0 remaining", st)
	}
	m1.Close() // crash

	m2, _ := openWALManager(t, dir)
	rec, ok := m2.Get(s.ID())
	if !ok {
		t.Fatal("halted session lost across restart")
	}
	got := rec.Status()
	if !got.Halted || got.Remaining != 0 || got.Positives != 3 || got.Answered != st.Answered {
		t.Fatalf("post-crash status %+v, want %+v", got, st)
	}
	// The restart must NOT refresh the spent budget: further sure-positives
	// release nothing.
	res := mustQuery(t, m2, s.ID(), surePositive())
	if len(res.Results) != 0 || !res.Halted {
		t.Fatalf("halted session released an answer after restart: %+v", res)
	}
}

func TestRestartRecoveryPartialBudgetEnforced(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	s := mustCreate(t, m1, CreateParams{
		Mechanism: MechProposed, Epsilon: 1, MaxPositives: 5, Threshold: ptr(0), Seed: 9,
	})
	for i := 0; i < 2; i++ {
		mustQuery(t, m1, s.ID(), surePositive())
	}
	m1.Close() // crash with 2 of 5 positives consumed

	m2, _ := openWALManager(t, dir)
	released := 0
	for i := 0; i < 10; i++ {
		res := mustQuery(t, m2, s.ID(), surePositive())
		released += len(res.Results)
	}
	if released != 3 {
		t.Fatalf("recovered session released %d more positives, want exactly the 3 remaining", released)
	}
}

func TestRecoveryAfterSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	s := mustCreate(t, m1, sparseParams())
	mustQuery(t, m1, s.ID(), surePositive())
	if err := m1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot events live only in the journal tail.
	mustQuery(t, m1, s.ID(), surePositive())
	mustQuery(t, m1, s.ID(), sureNegative())
	want := durableStatus(mustStatus(t, m1, s.ID()))
	m1.Close() // crash

	m2, _ := openWALManager(t, dir)
	got := durableStatus(mustStatus(t, m2, s.ID()))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+tail recovery diverged:\n got  %+v\n want %+v", got, want)
	}
	if got.Answered != 3 || got.Positives != 2 {
		t.Fatalf("counters %+v, want answered=3 positives=2", got)
	}
}

func TestDeletedAndExpiredSessionsStayGone(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	keep := mustCreate(t, m1, sparseParams())
	gone := mustCreate(t, m1, sparseParams())
	expired := mustCreate(t, m1, sparseParams())
	if !m1.Delete(gone.ID()) {
		t.Fatal("delete failed")
	}
	// Expire via the fake clock and a janitor pass.
	now := time.Now()
	m1.now = func() time.Time { return now.Add(48 * time.Hour) }
	if removed := m1.Sweep(); removed != 2 {
		t.Fatalf("sweep removed %d, want keep+expired = 2", removed)
	}
	m1.now = time.Now
	keep2 := mustCreate(t, m1, sparseParams())
	m1.Close() // crash

	m2, _ := openWALManager(t, dir)
	if _, ok := m2.Get(gone.ID()); ok {
		t.Fatal("deleted session resurrected by recovery")
	}
	if _, ok := m2.Get(expired.ID()); ok {
		t.Fatal("expired session resurrected by recovery")
	}
	if _, ok := m2.Get(keep2.ID()); !ok {
		t.Fatal("live session lost")
	}
	if got := m2.Recovered(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	_ = keep
}

func TestLazyExpiryJournaledOnGet(t *testing.T) {
	dir := t.TempDir()
	m1, _ := openWALManager(t, dir)
	s := mustCreate(t, m1, sparseParams())
	now := time.Now()
	m1.now = func() time.Time { return now.Add(48 * time.Hour) }
	// Lazy collection via Get, not the janitor's Sweep.
	if _, ok := m1.Get(s.ID()); ok {
		t.Fatal("expired session still served")
	}
	m1.Close() // crash

	m2, _ := openWALManager(t, dir)
	if _, ok := m2.Get(s.ID()); ok {
		t.Fatal("lazily expired session resurrected by recovery")
	}
	if got := m2.Recovered(); got != 0 {
		t.Fatalf("recovered %d sessions, want 0", got)
	}
}

func TestRecoveryToleratesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	m1, st := openWALManager(t, dir)
	s := mustCreate(t, m1, sparseParams())
	mustQuery(t, m1, s.ID(), surePositive())
	want := durableStatus(mustStatus(t, m1, s.ID()))
	mustQuery(t, m1, s.ID(), surePositive()) // this event gets torn
	m1.Close()
	// The logical journal end, NOT the file size: an mmap-mode segment is
	// chunk-padded with zeros past the last record, and a cut must land
	// inside the final record to tear it.
	end := int64(st.Health().JournalBytes)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: cut three bytes off the journal.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var journal string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			journal = filepath.Join(dir, e.Name())
		}
	}
	if journal == "" {
		t.Fatal("no journal segment found")
	}
	if err := os.Truncate(journal, end-3); err != nil {
		t.Fatal(err)
	}

	m2, _ := openWALManager(t, dir)
	got := durableStatus(mustStatus(t, m2, s.ID()))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn-tail recovery:\n got  %+v\n want %+v (state before the torn event)", got, want)
	}
}

// mustStatus fetches a session's status or fails the test.
func mustStatus(t *testing.T, m *SessionManager, id string) SessionStatus {
	t.Helper()
	s, ok := m.Get(id)
	if !ok {
		t.Fatalf("session %s not found", id)
	}
	return s.Status()
}

// failingStore lets Create succeed, then fails every later append.
type failingStore struct {
	store.Mem
	appends int
}

func (f *failingStore) Append(ev store.Event) error {
	f.appends++
	if f.appends > 1 {
		return fmt.Errorf("disk on fire")
	}
	return f.Mem.Append(ev)
}

func TestQueryWithheldWhenJournalFails(t *testing.T) {
	fs := &failingStore{}
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	s := mustCreate(t, m, sparseParams())
	_, qerr := m.Query(s.ID(), surePositive())
	if !errors.Is(qerr, ErrStoreAppend) {
		t.Fatalf("query error %v, want ErrStoreAppend: an unjournaled release must be withheld", qerr)
	}
}

func TestCreateRolledBackWhenJournalFails(t *testing.T) {
	fs := &failingStore{appends: 1} // fail from the very first append
	m, err := Open(ManagerConfig{SweepInterval: time.Hour, SnapshotInterval: -1, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, cerr := m.Create(sparseParams()); !errors.Is(cerr, ErrStoreAppend) {
		t.Fatalf("create error %v, want ErrStoreAppend", cerr)
	}
	if m.Len() != 0 {
		t.Fatalf("unjournaled session left registered: live=%d", m.Len())
	}
}

func TestSeedPersistedWithStreamPosition(t *testing.T) {
	// Replaying a seeded noise stream from position 0 after a crash would
	// let the analyst binary-search the realized noisy threshold for free.
	// Codec v2 therefore journals the seed TOGETHER with the stream
	// position: replay rebuilds from the seed and fast-forwards past every
	// journaled draw, so pre-crash noise is never re-emitted while seeded
	// sessions keep their reproducibility contract across a restart.
	p := sparseParams()
	if p.Seed == 0 {
		t.Fatal("test params must be seeded")
	}
	s, err := newSession(mech.Default, "x", p, time.Minute, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	rec := s.persistRecord()
	if rec.V < persistVersion {
		t.Fatalf("journaled record version %d, want ≥ %d", rec.V, persistVersion)
	}
	if rec.Params.Seed != p.Seed {
		t.Fatalf("journaled record carries seed %d, want %d", rec.Params.Seed, p.Seed)
	}
	if rec.Draws == 0 {
		t.Fatal("journaled record carries no stream position; replay would restart the stream at 0")
	}
}

func TestProgressRecordRoundTrip(t *testing.T) {
	cases := []progressDelta{
		{answered: 3, positives: 1, draws: 7, aux: 0},
		{answered: 1, positives: 1, draws: 2, aux: 5, state: mech.SyntheticStateBlob([]float64{1, 2.5, 3})},
		{answered: 2, positives: 1, draws: 4, aux: 0, state: mech.RhoStateBlob(-1.25)},
	}
	for i, want := range cases {
		ev := progressEvent("s", want)
		got, err := decodeProgress(ev.Data)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.answered != want.answered || got.positives != want.positives ||
			got.draws != want.draws || got.aux != want.aux {
			t.Fatalf("case %d: got %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.state, want.state) {
			t.Fatalf("case %d: state blob mismatch:\n got  %x\n want %x", i, got.state, want.state)
		}
	}
	// A v1 record — counters only — still decodes, with zero stream deltas.
	v1 := []byte{}
	v1 = appendUvarintForTest(v1, 5)
	v1 = appendUvarintForTest(v1, 2)
	got, err := decodeProgress(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got.answered != 5 || got.positives != 2 || got.draws != 0 || got.aux != 0 || got.state != nil {
		t.Fatalf("v1 decode: %+v", got)
	}
}

// legacyV2Progress hand-encodes the codec-v2 progress layout (special-cased
// ρ/synth flag bits), which this codec no longer writes but must decode
// forever: existing WALs recover through this path.
func legacyV2Progress(answered, positives int, draws, aux uint64, rho *float64, synth []float64) []byte {
	buf := []byte{}
	buf = appendUvarintForTest(buf, uint64(answered))
	buf = appendUvarintForTest(buf, uint64(positives))
	buf = appendUvarintForTest(buf, draws)
	buf = appendUvarintForTest(buf, aux)
	var flags byte
	if rho != nil {
		flags |= progressHasRho
	}
	if synth != nil {
		flags |= progressHasSynth
	}
	buf = append(buf, flags)
	if rho != nil {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*rho))
	}
	if synth != nil {
		buf = appendUvarintForTest(buf, uint64(len(synth)))
		for _, v := range synth {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// TestLegacyProgressDecodeMapsToStateBlobs pins the v2→v3 decode mapping:
// a v2 record's ρ or synthetic histogram must come back as exactly the
// opaque blob the corresponding mechanism's UnmarshalState expects.
func TestLegacyProgressDecodeMapsToStateBlobs(t *testing.T) {
	rho := -0.75
	d, err := decodeProgress(legacyV2Progress(2, 1, 9, 0, &rho, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.state, mech.RhoStateBlob(rho)) {
		t.Fatalf("v2 rho record decoded to state %x, want RhoStateBlob(%v)", d.state, rho)
	}
	synth := []float64{4, 1.5, 2, 0.5}
	d, err = decodeProgress(legacyV2Progress(3, 1, 4, 7, nil, synth))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.state, mech.SyntheticStateBlob(synth)) {
		t.Fatalf("v2 synth record decoded to state %x, want SyntheticStateBlob", d.state)
	}
	if d.answered != 3 || d.positives != 1 || d.draws != 4 || d.aux != 7 {
		t.Fatalf("v2 counters lost in decode: %+v", d)
	}
}

// TestLegacySessionRecordDecodeMapsToStateBlobs does the same for the JSON
// session records of evCreate/evSnapshot events.
func TestLegacySessionRecordDecodeMapsToStateBlobs(t *testing.T) {
	rho := 2.5
	rec := sessionRecord{V: 2, Rho: &rho}
	rec.legacyState()
	if !bytes.Equal(rec.State, mech.RhoStateBlob(rho)) || rec.Rho != nil {
		t.Fatalf("v2 rho session record mapped to %x (rho=%v)", rec.State, rec.Rho)
	}
	synth := []float64{1, 2, 3}
	rec = sessionRecord{V: 2, Synth: synth}
	rec.legacyState()
	if !bytes.Equal(rec.State, mech.SyntheticStateBlob(synth)) || rec.Synth != nil {
		t.Fatalf("v2 synth session record mapped to %x", rec.State)
	}
	// A v3 record's blob wins over any (impossible) legacy leftovers.
	blob := mech.RhoStateBlob(9)
	rec = sessionRecord{V: 3, State: blob, Rho: &rho}
	rec.legacyState()
	if !bytes.Equal(rec.State, blob) {
		t.Fatalf("v3 state blob overwritten by legacy mapping")
	}
}

func TestStatsExposeStoreHealth(t *testing.T) {
	dir := t.TempDir()
	m, _ := openWALManager(t, dir)
	s := mustCreate(t, m, sparseParams())
	mustQuery(t, m, s.ID(), sureNegative())
	st := m.Stats()
	if st.Store == nil {
		t.Fatal("stats missing store health")
	}
	if st.Store.Backend != "wal" || st.Store.Appends < 2 {
		t.Fatalf("store health %+v, want wal backend with ≥2 appends (create+progress)", st.Store)
	}
}

// TestLegacyV2WALRecovers replays a hand-encoded codec-v2 journal — the
// exact shapes a PR 3 server wrote, special-cased rho/synth fields and all
// — through today's v3 decoder. Existing WALs must recover unchanged: the
// counters come back, dpbook's journaled ρ is reinstalled, pmw resumes from
// its journaled synthetic histogram.
func TestLegacyV2WALRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewWAL(store.WALConfig{Dir: dir, Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	rho := -0.625
	dpbookRec := fmt.Sprintf(`{"v":2,"params":{"mechanism":"dpbook","epsilon":1,"maxPositives":8,"threshold":0.5,"seed":13,"ttlSeconds":600},"createdAtUnixNano":%d,"answered":2,"positives":1,"draws":5,"rho":%v}`, now, rho)
	pmwRec := fmt.Sprintf(`{"v":2,"params":{"mechanism":"pmw","epsilon":2,"maxPositives":3,"threshold":50,"seed":1,"ttlSeconds":600,"histogram":[2,2,2]},"createdAtUnixNano":%d,"answered":1,"positives":1,"draws":1,"gateDraws":3,"synth":[1,2,3]}`, now)
	for _, ev := range []store.Event{
		{Kind: evCreate, ID: "dpbook-legacy", Data: []byte(dpbookRec)},
		{Kind: evCreate, ID: "pmw-legacy", Data: []byte(pmwRec)},
		// v2 progress on the dpbook session: +2 answered, +1 positive,
		// +4 draws, flags=rho carrying an updated ρ of 2.5.
		{Kind: evProgress, ID: "dpbook-legacy", Data: legacyV2Progress(2, 1, 4, 0, ptr(2.5), nil)},
		// v1 progress (counters only) must still stack on top.
		{Kind: evProgress, ID: "dpbook-legacy", Data: legacyV1Progress(1, 0)},
	} {
		if err := st.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m, _ := openWALManager(t, dir)
	if m.Recovered() != 2 {
		t.Fatalf("recovered %d sessions from the v2 journal, want 2", m.Recovered())
	}
	db := mustStatus(t, m, "dpbook-legacy")
	if db.Answered != 5 || db.Positives != 2 || db.Remaining != 6 {
		t.Fatalf("dpbook legacy counters %+v, want answered=5 positives=2 remaining=6", db)
	}
	s, _ := m.Get("dpbook-legacy")
	if got := s.inst.MarshalState(); !bytes.Equal(got, mech.RhoStateBlob(2.5)) {
		t.Fatalf("dpbook legacy ρ not reinstalled: state %x, want RhoStateBlob(2.5)", got)
	}
	pm, _ := m.Get("pmw-legacy")
	if got := pm.Status().Synthetic; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("pmw legacy synthetic %v, want the journaled [1 2 3]", got)
	}
	// Recovered legacy sessions keep serving and re-journal as v3.
	mustQuery(t, m, "dpbook-legacy", sureNegative())
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
}

// TestProgressDecodeRejectsOverflowingCounters: a corrupt uvarint near
// 2^64 must be refused, not cast to a negative int that would SUBTRACT
// from the replayed counters and refresh spent privacy budget.
func TestProgressDecodeRejectsOverflowingCounters(t *testing.T) {
	huge := appendUvarintForTest(nil, math.MaxUint64-2)
	huge = appendUvarintForTest(huge, 1)
	if _, err := decodeProgress(huge); err == nil {
		t.Fatal("counter delta above MaxInt32 accepted; it would wrap negative at replay")
	}
	ok := appendUvarintForTest(nil, 3)
	ok = appendUvarintForTest(ok, math.MaxUint64)
	if _, err := decodeProgress(ok); err == nil {
		t.Fatal("positives delta above MaxInt32 accepted")
	}
}
