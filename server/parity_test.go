package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dpgo/svt/internal/fault"
	"github.com/dpgo/svt/wire"
)

// edgeFailure is a failure as a client of either edge observes it.
type edgeFailure struct {
	code       string
	msg        string
	retryAfter uint64
}

// parityCase sets up a fresh manager in which one request fails. setup
// returns the manager and the session to query; create cases instead
// send a create request.
type parityCase struct {
	name   string
	setup  func(t *testing.T) (m *SessionManager, session string)
	create bool
	// batch is the number of queries in the request.
	batch int

	wantCode   string
	wantStatus int
	wantRetry  uint64
}

const parityMaxBatch = 4

// viaHTTP sends the case's request through the HTTP edge.
func (pc parityCase) viaHTTP(t *testing.T) edgeFailure {
	t.Helper()
	m, session := pc.setup(t)
	api := NewAPI(m, APIConfig{MaxBatch: parityMaxBatch})
	var req *http.Request
	if pc.create {
		body, _ := json.Marshal(sparseParams())
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(string(body)))
	} else {
		items := strings.TrimSuffix(strings.Repeat(`{"query":0,"threshold":1e12},`, pc.batch), ",")
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+session+"/query",
			strings.NewReader(`{"queries":[`+items+`]}`))
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != pc.wantStatus {
		t.Fatalf("HTTP status %d, want %d: %s", rec.Code, pc.wantStatus, rec.Body.String())
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("HTTP error body %q: %v", rec.Body.String(), err)
	}
	out := edgeFailure{code: body.Error.Code, msg: body.Error.Message}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		secs, err := strconv.ParseUint(ra, 10, 64)
		if err != nil {
			t.Fatalf("Retry-After %q: %v", ra, err)
		}
		out.retryAfter = secs
	}
	return out
}

// viaWire sends the case's request through the wire edge over loopback.
func (pc parityCase) viaWire(t *testing.T) edgeFailure {
	t.Helper()
	m, session := pc.setup(t)
	addr := startWireServer(t, NewWireServer(m, WireConfig{MaxBatch: parityMaxBatch}))
	tc := dialWire(t, addr, "", "")
	var ef *wire.ErrorFrame
	if pc.create {
		body, _ := json.Marshal(sparseParams())
		tc.send(wire.OpCreate, func(dst []byte) []byte { return append(dst, body...) })
		op, _, resp := tc.read()
		if op == wire.OpError {
			ef = new(wire.ErrorFrame)
			if err := wire.DecodeErrorBody(resp, ef); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		items := make([]wire.QueryItem, pc.batch)
		for i := range items {
			items[i] = wire.QueryItem{Query: 0, Threshold: 1e12, HasThreshold: true}
		}
		_, ef = tc.query(session, "", items)
	}
	if ef == nil {
		t.Fatal("wire request succeeded, want an error frame")
	}
	return edgeFailure{code: ef.Code, msg: ef.Message, retryAfter: ef.RetryAfterSeconds}
}

// TestErrorParityAcrossEdges drives each failure the shared query step
// and the create handlers map through both edges, and checks that a
// client sees the same code, message and retry hint on either: HTTP's
// Retry-After header against the wire frame's RetryAfterSeconds.
func TestErrorParityAcrossEdges(t *testing.T) {
	withSession := func(cfg ManagerConfig) func(t *testing.T) (*SessionManager, string) {
		return func(t *testing.T) (*SessionManager, string) {
			m := newTestManager(t, cfg)
			return m, mustCreate(t, m, sparseParams()).ID()
		}
	}
	unknownSession := func(t *testing.T) (*SessionManager, string) {
		return newTestManager(t, ManagerConfig{}), "no-such-session"
	}
	// withFault opens a fault-wrapped manager whose create is append #1,
	// so rule applies from the query's journal append on.
	withFault := func(rule fault.Rule, deadline time.Duration) func(t *testing.T) (*SessionManager, string) {
		return func(t *testing.T) (*SessionManager, string) {
			m := openFaultManager(t, fault.NewSchedule(42, rule), deadline)
			return m, mustCreate(t, m, sparseParams()).ID()
		}
	}
	cases := []parityCase{
		{
			name: "not_found", setup: unknownSession, batch: 1,
			wantCode: CodeNotFound, wantStatus: http.StatusNotFound,
		},
		{
			name: "empty_batch", setup: withSession(ManagerConfig{}), batch: 0,
			wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest,
		},
		{
			name: "batch_over_cap", setup: withSession(ManagerConfig{}), batch: parityMaxBatch + 1,
			wantCode: CodeTooLarge, wantStatus: http.StatusRequestEntityTooLarge,
		},
		{
			name: "too_many_sessions", setup: withSession(ManagerConfig{MaxSessions: 1}), create: true,
			wantCode: CodeTooManySessions, wantStatus: http.StatusTooManyRequests,
		},
		{
			name:  "store_failure",
			setup: withFault(fault.Rule{Op: fault.OpAppend, After: 1, Count: 1, Err: fault.ErrInjected}, 0),
			batch: 1, wantCode: CodeStoreFailure, wantStatus: http.StatusServiceUnavailable,
			wantRetry: DefaultRetryAfterSeconds,
		},
		{
			name:  "unavailable",
			setup: withFault(fault.Rule{Op: fault.OpAppend, After: 1, Count: 1, Stall: true}, 20*time.Millisecond),
			batch: 1, wantCode: CodeUnavailable, wantStatus: http.StatusServiceUnavailable,
			wantRetry: DefaultRetryAfterSeconds,
		},
	}
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			h, w := pc.viaHTTP(t), pc.viaWire(t)
			if h != w {
				t.Fatalf("edges disagree:\n http %+v\n wire %+v", h, w)
			}
			if h.code != pc.wantCode || h.retryAfter != pc.wantRetry || h.msg == "" {
				t.Fatalf("failure %+v, want code %q and retry hint %d", h, pc.wantCode, pc.wantRetry)
			}
		})
	}
}
