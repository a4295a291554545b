package server

// The pmw mediator served end to end: its answers, its public synthetic
// histogram in session status, its exhaustion flag and its budget
// invariant under concurrent use, checked on both edges — JSON over
// net/http and the Go SDK over a real wire socket.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/mech"
	"github.com/dpgo/svt/wire"
)

// servedEdge is one serving edge as an analyst sees it. Its calls return
// errors instead of failing the test, so worker goroutines can use them.
type servedEdge struct {
	name   string
	create func(p CreateParams) (SessionStatus, error)
	query  func(id string, buckets []int) (QueryResult, error)
	status func(id string) (SessionStatus, error)
	// rawStatus is the status body exactly as the edge sent it.
	rawStatus func(id string) ([]byte, error)
}

// servedEdges serves one manager over HTTP and over the wire protocol.
func servedEdges(t *testing.T) (*SessionManager, []servedEdge) {
	t.Helper()
	m := newTestManager(t, ManagerConfig{})
	srv := httptest.NewServer(NewAPI(m, APIConfig{}))
	t.Cleanup(srv.Close)
	addr := startWireServer(t, NewWireServer(m, WireConfig{}))
	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	httpDo := func(method, path string, body any, out any) ([]byte, error) {
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode >= 300 {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
		}
		return raw, json.Unmarshal(raw, out)
	}
	httpEdge := servedEdge{
		name: "http",
		create: func(p CreateParams) (SessionStatus, error) {
			var cr CreateResponse
			_, err := httpDo(http.MethodPost, "/v1/sessions", p, &cr)
			return cr.SessionStatus, err
		},
		query: func(id string, buckets []int) (QueryResult, error) {
			var br BatchResult
			if _, err := httpDo(http.MethodPost, "/v1/sessions/"+id+"/query", QueryItem{Buckets: buckets}, &br); err != nil {
				return QueryResult{}, err
			}
			return br.Results[0], nil
		},
		status: func(id string) (st SessionStatus, err error) {
			_, err = httpDo(http.MethodGet, "/v1/sessions/"+id, nil, &st)
			return st, err
		},
		rawStatus: func(id string) ([]byte, error) {
			var st SessionStatus
			return httpDo(http.MethodGet, "/v1/sessions/"+id, nil, &st)
		},
	}

	fromClient := func(st client.SessionStatus) SessionStatus {
		return SessionStatus{
			ID: st.ID, Answered: st.Answered, Positives: st.Positives,
			Remaining: st.Remaining, Halted: st.Halted, Synthetic: st.Synthetic,
		}
	}
	wireEdge := servedEdge{
		name: "wire",
		create: func(p CreateParams) (SessionStatus, error) {
			cr, err := c.Create(client.CreateParams{
				Mechanism: string(p.Mechanism), Epsilon: p.Epsilon, MaxPositives: p.MaxPositives,
				Threshold: p.Threshold, Seed: p.Seed, Histogram: p.Histogram,
			})
			if err != nil {
				return SessionStatus{}, err
			}
			return fromClient(cr.SessionStatus), nil
		},
		query: func(id string, buckets []int) (QueryResult, error) {
			br, err := c.Query(id, []client.QueryItem{{Buckets: buckets}})
			if err != nil {
				return QueryResult{}, err
			}
			return br.Results[0], nil
		},
		status: func(id string) (SessionStatus, error) {
			st, err := c.Status(id)
			if err != nil {
				return SessionStatus{}, err
			}
			return fromClient(*st), nil
		},
		rawStatus: func(id string) ([]byte, error) {
			tc := dialWire(t, addr, "", "")
			reqID := tc.send(wire.OpStatus, func(dst []byte) []byte { return wire.AppendIDBody(dst, id) })
			op, gotID, body := tc.read()
			if op != wire.OpStatusOK || gotID != reqID {
				return nil, fmt.Errorf("status answered op %#x id %d, want statusOK id %d", op, gotID, reqID)
			}
			return body, nil
		},
	}
	return m, []servedEdge{httpEdge, wireEdge}
}

// TestServedPMWSession drives pmw sessions through both edges: answers and
// their fromSynthetic flags, malformed bucket queries, the synthetic
// histogram in status, exhaustion, and the budget invariant under
// concurrent queries and status reads.
func TestServedPMWSession(t *testing.T) {
	m, edges := servedEdges(t)
	p := pmwParams() // 6 buckets, total mass 1000, 3 updates
	for _, e := range edges {
		t.Run(e.name, func(t *testing.T) {
			must := func(t *testing.T, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			create := func(t *testing.T) SessionStatus {
				t.Helper()
				st, err := e.create(p)
				must(t, err)
				return st
			}

			t.Run("answers", func(t *testing.T) {
				id := create(t).ID
				// Whole-domain query: the synthetic answer is exact and free.
				r, err := e.query(id, []int{0, 1, 2, 3, 4, 5})
				must(t, err)
				if !r.Numeric || !r.FromSynthetic || r.Exhausted || math.Abs(r.Value-1000) > 1e-6 {
					t.Fatalf("whole-domain answer %+v, want a free synthetic 1000", r)
				}
				// Skewed bucket: the prior is far off, so the gate spends an update.
				r, err = e.query(id, []int{4})
				must(t, err)
				if !r.Numeric || r.FromSynthetic || r.Exhausted {
					t.Fatalf("hard-query answer %+v, want a budgeted update release", r)
				}
			})

			t.Run("bad-queries", func(t *testing.T) {
				id := create(t).ID
				for _, buckets := range [][]int{nil, {99}, {1, 1}} {
					if _, err := e.query(id, buckets); err == nil {
						t.Errorf("buckets %v accepted", buckets)
					}
				}
				st, err := e.status(id)
				must(t, err)
				if st.Answered != 0 || st.Positives != 0 {
					t.Errorf("rejected queries moved the session: answered=%d positives=%d", st.Answered, st.Positives)
				}
			})

			t.Run("synthetic", func(t *testing.T) {
				created := create(t)
				if len(created.Synthetic) != len(p.Histogram) {
					t.Fatalf("create response synthetic %v, want the %d-bucket prior", created.Synthetic, len(p.Histogram))
				}
				_, err := e.query(created.ID, []int{4})
				must(t, err)
				st, err := e.status(created.ID)
				must(t, err)
				if st.Positives != 1 || len(st.Synthetic) != len(p.Histogram) {
					t.Fatalf("status positives=%d synthetic=%v, want 1 update and %d buckets", st.Positives, st.Synthetic, len(p.Histogram))
				}
				mass := 0.0
				for _, v := range st.Synthetic {
					mass += v
				}
				if math.Abs(mass-1000) > 1e-6 {
					t.Errorf("synthetic mass %v, want the histogram total 1000", mass)
				}
				// The served histogram is the engine's own.
				s, ok := m.Get(created.ID)
				if !ok {
					t.Fatalf("session %s not in the manager", created.ID)
				}
				s.mu.Lock()
				engine := s.inst.(mech.SyntheticReleaser).Synthetic()
				s.mu.Unlock()
				if !reflect.DeepEqual(st.Synthetic, engine) {
					t.Errorf("served synthetic %v, engine holds %v", st.Synthetic, engine)
				}
				raw, err := e.rawStatus(created.ID)
				must(t, err)
				if !strings.Contains(string(raw), `"synthetic":[`) {
					t.Errorf("pmw status JSON lacks the synthetic key: %s", raw)
				}
			})

			t.Run("exhaustion", func(t *testing.T) {
				id := create(t).ID
				// Spend the update budget; past it every answer is an
				// unchecked synthetic estimate and positives stays put.
				var st SessionStatus
				for i := 0; i < 100 && !st.Halted; i++ {
					_, err := e.query(id, []int{i % 6})
					must(t, err)
					st, err = e.status(id)
					must(t, err)
				}
				if !st.Halted || st.Positives != p.MaxPositives {
					t.Fatalf("after 100 queries: halted=%v positives=%d, want exhaustion at %d", st.Halted, st.Positives, p.MaxPositives)
				}
				for i := 0; i < 3; i++ {
					r, err := e.query(id, []int{4})
					must(t, err)
					if !r.Numeric || !r.Exhausted {
						t.Fatalf("answer past maxPositives %+v, want numeric and exhausted", r)
					}
				}
				st, err := e.status(id)
				must(t, err)
				if st.Positives != p.MaxPositives || st.Remaining != 0 {
					t.Errorf("positives=%d remaining=%d after exhaustion, want %d/0", st.Positives, st.Remaining, p.MaxPositives)
				}
			})

			t.Run("concurrent", func(t *testing.T) {
				// Queries race status reads on one session: every status seen
				// keeps positives+remaining at the update budget.
				id := create(t).ID
				var wg sync.WaitGroup
				for w := 0; w < 6; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < 15; i++ {
							if w%2 == 0 {
								if _, err := e.query(id, []int{(w + i) % 6}); err != nil {
									t.Error(err)
									return
								}
								continue
							}
							st, err := e.status(id)
							if err != nil {
								t.Error(err)
								return
							}
							if st.Positives+st.Remaining != p.MaxPositives {
								t.Errorf("positives %d + remaining %d != maxPositives %d", st.Positives, st.Remaining, p.MaxPositives)
							}
						}
					}(w)
				}
				wg.Wait()
				st, err := e.status(id)
				must(t, err)
				if st.Answered != 45 || st.Positives+st.Remaining != p.MaxPositives {
					t.Errorf("after the race: answered=%d positives=%d remaining=%d", st.Answered, st.Positives, st.Remaining)
				}
			})

			t.Run("no-synthetic-elsewhere", func(t *testing.T) {
				sparse, err := e.create(sparseParams())
				must(t, err)
				if sparse.Synthetic != nil {
					t.Errorf("sparse create response carries synthetic %v", sparse.Synthetic)
				}
				raw, err := e.rawStatus(sparse.ID)
				must(t, err)
				if strings.Contains(string(raw), `"synthetic"`) {
					t.Errorf("sparse status JSON has a synthetic key: %s", raw)
				}
			})
		})
	}
}

// TestServedPMWJSONErrors pins the JSON error hardening of a pmw session's
// HTTP routes: unknown paths, wrong methods and oversized bucket queries
// all get a JSON error body, and none of them moves the session.
func TestServedPMWJSONErrors(t *testing.T) {
	srv, _ := newTestAPI(t, ManagerConfig{}, APIConfig{})
	id := createSession(t, srv.URL, pmwParams()).ID
	base := srv.URL + "/v1/sessions/" + id
	expectJSONError := func(resp *http.Response, wantStatus int, wantCode, what string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", what, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q, want application/json", what, ct)
		}
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code != wantCode {
			t.Errorf("%s: error body %+v (%v), want code %q", what, eb, err, wantCode)
		}
	}

	// Unknown paths under the session get a JSON 404, not the stdlib text page.
	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	expectJSONError(resp, http.StatusNotFound, CodeNotFound, "unknown path")

	// Wrong methods on the query route get a JSON 405 with Allow set.
	resp, err = http.Get(base + "/query")
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow %q, want POST", allow)
	}
	expectJSONError(resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET query")

	// An oversized bucket list gets a JSON 413 instead of being read to the end.
	big := append([]byte(`{"buckets":[`), bytes.Repeat([]byte("0,"), DefaultMaxBodyBytes)...)
	big = append(big, "0]}"...)
	resp, err = http.Post(base+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	expectJSONError(resp, http.StatusRequestEntityTooLarge, CodeTooLarge, "oversized body")

	var st SessionStatus
	if code := doJSON(t, http.MethodGet, base, nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Answered != 0 || st.Positives != 0 || len(st.Synthetic) != len(pmwParams().Histogram) {
		t.Errorf("rejected requests moved the session: %+v", st)
	}
}
