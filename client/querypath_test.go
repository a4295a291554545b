package client_test

// Tests of the client's query path: what it puts on the wire, how replies
// find their callers across a torn connection, and what it allocates.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/internal/fault"
	"github.com/dpgo/svt/server"
	"github.com/dpgo/svt/wire"
)

// TestClientQueryEncoding checks the frames the SDK sends: each OpQuery
// body decodes with wire.DecodeQueryBody to exactly the caller's items
// and correlation ID, and is byte-identical to wire.AppendQueryBody's
// encoding of the same batch.
func TestClientQueryEncoding(t *testing.T) {
	bodies := make(chan []byte, 1)
	addr := fakeWireServer(t, func(_ int, op byte, id uint64, body []byte) []byte {
		if op != wire.OpQuery {
			return nil
		}
		var req wire.QueryRequest
		if err := wire.DecodeQueryBody(body, &req); err != nil {
			return nil
		}
		bodies <- append([]byte(nil), body...)
		corr := req.Corr
		if len(corr) == 0 {
			corr = []byte("minted")
		}
		return wire.AppendQueryOKBody(wire.AppendHeader(nil, wire.OpQueryOK, id),
			corr, false, 0, make([]wire.Result, len(req.Items)))
	})
	c := dial(t, addr, client.Options{})

	cases := []struct {
		name  string
		corr  string
		items []client.QueryItem
	}{
		{"absent threshold, empty corr", "", []client.QueryItem{{Query: 1.5}}},
		{"threshold explicitly 0", "corr-zero", []client.QueryItem{{Query: -2, Threshold: client.Float(0)}}},
		{"buckets", "corr-buckets", []client.QueryItem{
			{Query: 0, Buckets: []int{0, 7, -3, 12345}},
			{Query: 3, Threshold: client.Float(2.5), Buckets: []int{1}},
			{Query: 4},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := c.QueryID("sess-1", tc.corr, tc.items)
			if err != nil {
				t.Fatalf("QueryID: %v", err)
			}
			body := <-bodies
			want := make([]wire.QueryItem, len(tc.items))
			for i, it := range tc.items {
				want[i] = wire.QueryItem{Query: it.Query, Buckets: it.Buckets}
				if it.Threshold != nil {
					want[i].Threshold, want[i].HasThreshold = *it.Threshold, true
				}
			}
			if ref := wire.AppendQueryBody(nil, "sess-1", tc.corr, want); !bytes.Equal(body, ref) {
				t.Fatalf("body %x, want %x", body, ref)
			}
			var req wire.QueryRequest
			if err := wire.DecodeQueryBody(body, &req); err != nil {
				t.Fatal(err)
			}
			if string(req.Session) != "sess-1" || string(req.Corr) != tc.corr {
				t.Fatalf("session=%q corr=%q, want sess-1 and %q", req.Session, req.Corr, tc.corr)
			}
			if !reflect.DeepEqual(req.Items, want) {
				t.Fatalf("decoded items\n got %+v\nwant %+v", req.Items, want)
			}
			wantID := tc.corr
			if wantID == "" {
				wantID = "minted"
			}
			if res.RequestID != wantID || len(res.Results) != len(tc.items) {
				t.Fatalf("RequestID=%q results=%d, want %q and %d", res.RequestID, len(res.Results), wantID, len(tc.items))
			}
		})
	}
}

// TestClientReplyRouting runs 64 callers with distinct correlation IDs
// through one client while a fault-injecting dialer tears the connection
// over and over: on about 3% of writes once the queries run, and once on
// a read. Every call must come back with its own ID, or fail with
// ErrAmbiguous: a reply channel reused while a late frame could still
// reach it would hand one caller another's answer. That late frame needs
// a write tear to land while the reader is mid-delivery, a narrow window,
// hence many tears per run; after touching the reply path, run it with
// -race -count=10. Each session's Answered must lie between its caller's
// successes and its successes plus ambiguous calls.
func TestClientReplyRouting(t *testing.T) {
	m := server.NewSessionManager(server.ManagerConfig{})
	t.Cleanup(m.Close)
	addr, _ := serveManager(t, m, server.WireConfig{})

	const callers, perCaller = 64, 64
	// Writes and reads: 1 hello, 1 mechanisms and 64 creates, one each,
	// before the queries start. Reads then batch several replies.
	sched := fault.NewSchedule(15,
		fault.Rule{Op: fault.OpWrite, After: 100, Prob: 0.03, Tear: true, TearAfter: 3},
		fault.Rule{Op: fault.OpRead, After: 80, Count: 1, Tear: true, TearAfter: 5},
	)
	// Enough attempts that a call whose frame never left keeps retrying
	// through the next tears instead of running out.
	c := dial(t, addr, client.Options{
		Retry: &client.RetryPolicy{MaxAttempts: 64, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
		Dialer: func(a string) (net.Conn, error) {
			conn, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return fault.WrapConn(conn, sched), nil
		},
	})
	ids := make([]string, callers)
	for g := range ids {
		sess, err := c.Create(client.CreateParams{Mechanism: "sparse", Epsilon: 1, MaxPositives: 4})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ids[g] = sess.ID
	}

	var ok, ambiguous [callers]int
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := []client.QueryItem{{Query: 0, Threshold: client.Float(1e12)}}
			for i := 0; i < perCaller; i++ {
				corr := fmt.Sprintf("caller%02d-query%02d", g, i)
				res, err := c.QueryID(ids[g], corr, items)
				switch {
				case errors.Is(err, client.ErrAmbiguous):
					ambiguous[g]++
				case err != nil:
					errs <- fmt.Errorf("%s: %w", corr, err)
					return
				case res.RequestID != corr || len(res.Results) != 1:
					errs <- fmt.Errorf("%s got the reply for %s (%d results)", corr, res.RequestID, len(res.Results))
					return
				default:
					ok[g]++
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var acked, lost int
	for g := range ok {
		acked, lost = acked+ok[g], lost+ambiguous[g]
	}
	t.Logf("%d calls answered, %d ambiguous", acked, lost)
	if w, r := sched.Injected(fault.OpWrite), sched.Injected(fault.OpRead); w == 0 || r != 1 {
		t.Fatalf("%d write and %d read tears injected, want some and 1", w, r)
	}
	if st := c.Stats(); st.Reconnects < 2 {
		t.Fatalf("Reconnects = %d, want >= 2", st.Reconnects)
	}
	for g, id := range ids {
		st, err := c.Status(id)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st.Answered < ok[g] || st.Answered > ok[g]+ambiguous[g] {
			t.Fatalf("session %d Answered = %d, want between %d acked and %d acked+ambiguous",
				g, st.Answered, ok[g], ok[g]+ambiguous[g])
		}
	}
}

// TestClientQueryAllocs pins the allocations of one query round trip
// through the client against an in-memory WireServer on loopback.
// testing.AllocsPerRun counts the whole process, so the pin covers the
// client and the server together; the client itself allocates only the
// result it returns.
func TestClientQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector, inflating alloc counts; CI pins this in a non-race pass")
	}
	const budget = 8
	addr, _ := startServer(t, server.WireConfig{})
	c := dial(t, addr, client.Options{})
	sess, err := c.Create(client.CreateParams{
		Mechanism: "sparse", Epsilon: 1, MaxPositives: 1 << 30, Threshold: client.Float(1e12),
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, n := range []int{1, 256} {
		items := make([]client.QueryItem, n)
		run := func() {
			res, err := c.Query(sess.ID, items)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if len(res.Results) != n {
				t.Fatalf("%d results, want %d", len(res.Results), n)
			}
		}
		for i := 0; i < 50; i++ {
			run() // warm the pools on both sides
		}
		got := testing.AllocsPerRun(200, run)
		t.Logf("%d-query round trip: %.0f allocs/op", n, got)
		if got > budget {
			t.Errorf("%d-query round trip allocates %.1f/op, budget %d", n, got, budget)
		}
	}
}

// TestClientMechanismsOrder: Mechanisms returns the server's registry in
// the server's order on every call, and the unknown-mechanism error
// lists the offerings in that same order.
func TestClientMechanismsOrder(t *testing.T) {
	m := server.NewSessionManager(server.ManagerConfig{})
	t.Cleanup(m.Close)
	addr, _ := serveManager(t, m, server.WireConfig{})
	c := dial(t, addr, client.Options{})

	var want []string
	for _, mi := range m.Mechanisms() {
		want = append(want, string(mi.Name))
	}
	var firstErr string
	for i := 0; i < 20; i++ {
		mechs, err := c.Mechanisms()
		if err != nil {
			t.Fatalf("Mechanisms: %v", err)
		}
		var got []string
		for _, mi := range mechs {
			got = append(got, mi.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Mechanisms names %v, want the server's %v", i, got, want)
		}
		_, err = c.Create(client.CreateParams{Mechanism: "nope", Epsilon: 1, MaxPositives: 1})
		if err == nil {
			t.Fatal("Create of an unknown mechanism succeeded")
		}
		if i == 0 {
			firstErr = err.Error()
		} else if err.Error() != firstErr {
			t.Fatalf("call %d: %q, want the same message as the first call %q", i, err, firstErr)
		}
	}
}
