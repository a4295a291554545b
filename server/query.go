package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/dpgo/svt/telemetry"
	"github.com/dpgo/svt/trace"
)

// queryPath is the query step both serving edges share. An edge decodes
// its request into a queryCall and hands it to serve, which bounds the
// batch, echoes or mints the request ID, head-samples the trace, calls
// the manager and maps its error to a failure. The edge keeps only its
// codec, so the two edges cannot account a query differently.
type queryPath struct {
	mgr      *SessionManager
	tracer   *trace.Tracer
	maxBatch int
	// name and route label the edge's root span.
	name, route string
	// slowNanos, when positive, times every manager call and logs those
	// at or over it to slow: the HTTP edge's slow-query log.
	slowNanos int64
	slow      *slog.Logger
}

// queryCall is one request through queryPath.serve: the edge fills the
// inputs, serve the outputs. It lives in the edges' pooled scratch.
type queryCall struct {
	session string
	items   []QueryItem
	// corr is the caller's correlation ID; empty means serve mints one.
	corr  string
	tpID  trace.TraceID
	hasTP bool
	// decodeStart is the trace clock when the edge began decoding, read
	// only when a tracer is configured; a sampled root span starts there.
	decodeStart int64
	// fail, when set before serve, is the edge's decode failure: serve
	// still correlates and samples the request but skips the manager.
	fail failure

	results []QueryResult
	trace   QueryTrace

	// reqID is the echoed or minted request ID. root is the request's
	// span when trace-sampled, nil otherwise; the edge ends it once the
	// response is encoded.
	reqID string
	root  *trace.Span
	res   BatchResult
}

// reset drops everything request-scoped, so a pooled call pins no
// decoded request, span or trace; only the results array is kept.
func (q *queryCall) reset() {
	*q = queryCall{results: q.results[:0]}
}

// decodeClock reads the trace clock for queryCall.decodeStart, and only
// when tracing is configured: the untraced server never reads it.
//
//svt:hotpath
func (p *queryPath) decodeClock() int64 {
	if p.tracer == nil {
		return 0
	}
	return trace.Now()
}

// serve runs one decoded query request. On return either q.fail is set
// or q.res holds the answers, already journaled: an edge encoding after
// serve keeps the journal-before-response invariant by construction.
//
//svt:hotpath
func (p *queryPath) serve(q *queryCall) {
	q.reqID = q.corr
	if q.reqID == "" {
		// The mint is one small allocation, which both edges' allocation
		// pins absorb (TestQueryHotPathAllocs, TestWireQueryHotPathAllocs).
		q.reqID = newRequestID()
	}
	// A request already carrying correlation (its own request ID or a
	// valid traceparent) is always sampled: someone upstream follows it.
	if p.tracer.Sample(q.corr != "" || q.hasTP) {
		var tid trace.TraceID
		if q.hasTP {
			tid = q.tpID
		}
		q.root = p.tracer.StartRootAt(p.name, p.route, q.reqID, tid, q.decodeStart)
		q.root.AttachChild("decode", q.decodeStart, trace.Now())
	}
	if q.fail.code != "" {
		return
	}
	switch n := len(q.items); {
	case n == 0:
		q.fail = failure{CodeBadRequest, "empty query batch", 0}
		return
	case n > p.maxBatch:
		q.fail = batchTooLarge(n, p.maxBatch)
		return
	}
	q.root.SetAttr("session", q.session)
	q.root.SetAttrInt("batch", int64(len(q.items)))
	var err error
	if p.slowNanos > 0 || q.root != nil {
		// The traced manager path is opt-in: only a slow-query threshold
		// or a sampled trace makes the request read the clock twice and
		// thread a trace through the manager.
		start := telemetry.Now()
		q.trace = QueryTrace{TraceID: q.reqID, Span: q.root}
		q.res, err = p.mgr.QueryTraced(q.session, q.items, q.results[:0], &q.trace)
		if p.slowNanos > 0 {
			if dur := telemetry.Now() - start; dur >= p.slowNanos {
				p.logSlowQuery(q, dur, err)
			}
		}
	} else {
		q.res, err = p.mgr.QueryInto(q.session, q.items, q.results[:0])
	}
	if cap(q.res.Results) > cap(q.results) {
		q.results = q.res.Results[:0]
	}
	if err != nil {
		q.fail = managerFailure(err, q.session)
	}
}

// logSlowQuery emits the structured trace line for a query that ran at
// or over the slow-query threshold. The line carries everything needed
// to chase the latency: the trace ID, the session, its mechanism, the
// batch size, the total duration, and how much of it was spent waiting
// on the WAL group-commit flush.
func (p *queryPath) logSlowQuery(q *queryCall, dur int64, err error) {
	attrs := []any{
		slog.String("traceId", q.trace.TraceID),
		slog.String("session", q.session),
		slog.String("mechanism", string(q.trace.Mechanism)),
		slog.Int("batch", len(q.items)),
		slog.Duration("duration", time.Duration(dur)),
		slog.Duration("journalWait", time.Duration(q.trace.JournalNanos)),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	p.slow.Warn("slow query", attrs...)
}

// failure is a typed request error: a stable code, a message and a retry
// hint in seconds (0 when not retryable). HTTP sends it as a status,
// ErrorBody and Retry-After header; wire as an error frame.
type failure struct {
	code       string
	msg        string
	retryAfter uint64
}

// managerFailure maps a SessionManager error to its failure. session
// names the queried session in the not_found message.
func managerFailure(err error, session string) failure {
	switch {
	case errors.Is(err, ErrSessionNotFound):
		return failure{CodeNotFound, "no such session: " + session, 0}
	case errors.Is(err, ErrTooManySessions):
		return failure{CodeTooManySessions, err.Error(), 0}
	case errors.Is(err, ErrUnavailable):
		return failure{CodeUnavailable, err.Error(), DefaultRetryAfterSeconds}
	case errors.Is(err, ErrStoreAppend):
		return failure{CodeStoreFailure, err.Error(), DefaultRetryAfterSeconds}
	default:
		return failure{CodeBadRequest, err.Error(), 0}
	}
}

// batchTooLarge is the too_large failure for a batch over the cap. It
// lives outside the //svt:hotpath scope on purpose: a request that trips
// a cap is already off the fast path, so it may pay for fmt.
func batchTooLarge(n, max int) failure {
	return failure{CodeTooLarge, fmt.Sprintf("batch of %d exceeds the cap of %d", n, max), 0}
}

// httpStatus is the HTTP status each error code is delivered with.
func httpStatus(code string) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeTooManySessions, CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeStoreFailure, CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// admission is an edge's in-flight load-shedding gate. Past max
// concurrently admitted requests, admit refuses and counts the refusal on
// the edge's svt_shed_total series; the edge answers with refusal, a
// retryable unavailable failure, rather than queueing toward collapse.
// A zero max admits everything.
type admission struct {
	max     int64
	n       atomic.Int64
	shed    *atomic.Uint64
	refusal failure
}

// newRefusal is the failure a full gate answers with; what names the
// unit the gate counts ("request", "query").
func newRefusal(what string) failure {
	return failure{CodeUnavailable, "server overloaded: in-flight " + what +
		" cap reached, retry shortly", DefaultRetryAfterSeconds}
}

// admit reserves an in-flight slot; every true return must be paired
// with one release.
func (g *admission) admit() bool {
	if g.max <= 0 {
		return true
	}
	if g.n.Add(1) > g.max {
		g.n.Add(-1)
		g.shed.Add(1)
		return false
	}
	return true
}

func (g *admission) release() {
	if g.max > 0 {
		g.n.Add(-1)
	}
}
