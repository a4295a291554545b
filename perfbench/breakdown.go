package main

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"
)

// callCost splits one client call's round trip across the layers whose
// spans fall inside it. The parts sum to rtt:
//
//	rtt = clientSelf + clientSock + serverSelf + mech + store + unattributed
//
// clientSelf is SDK time before the request's first socket write and
// after the response's last socket read; clientSock is time inside the
// client's socket writes; service is the server connection's time from
// the request's first read to the response's last write, of which mech
// is time inside Answer, store is time inside journal appends and
// serverSelf the rest (decode, session, telemetry, encode, the server's
// socket write). What no span covers — loopback transit and goroutine
// wake-ups — is unattributed.
type callCost struct {
	kind                                                                        opKind
	t0                                                                          int64
	rtt, service, clientSelf, clientSock, serverSelf, mech, store, unattributed int64
	hasService                                                                  bool
	clientWrites, clientBytes, serverWrites                                     int
	answers, refused, appends                                                   int
}

// serviceSpan is one request as the server's socket saw it.
type serviceSpan struct {
	t0, t1 int64
	writes int
}

// serviceSpans pairs a server connection's reads and writes: a request
// opens at the first read after the previous response and closes at the
// next write; writes before the next read extend the response.
func serviceSpans(c *tracedConn) []serviceSpan {
	var out []serviceSpan
	open := false
	var start int64
	ri, wi := 0, 0
	for ri < len(c.reads) || wi < len(c.writes) {
		if wi == len(c.writes) || (ri < len(c.reads) && c.reads[ri].t1 < c.writes[wi].t0) {
			if !open {
				open, start = true, c.reads[ri].t1
			}
			ri++
			continue
		}
		w := c.writes[wi]
		wi++
		switch {
		case open:
			out = append(out, serviceSpan{t0: start, t1: w.t1, writes: 1})
			open = false
		case len(out) > 0:
			out[len(out)-1].t1 = w.t1
			out[len(out)-1].writes++
		}
	}
	return out
}

// analystSpans is everything recorded on behalf of one analyst, each
// list sorted by start time.
type analystSpans struct {
	service []serviceSpan
	cwrites []ioEvent
	creads  []ioEvent
	mech    []mechSpan
	store   []storeSpan
}

// attribute groups the recorder's spans by analyst: client sockets by the
// dialing analyst, server sockets by matching the peer address, store
// appends by session ID and mechanism spans by session seed.
func attribute(rec *recorder, as []*analyst) []analystSpans {
	out := make([]analystSpans, len(as))
	byID := map[string]int{}
	bySeed := map[uint64]int{}
	for i, a := range as {
		for _, s := range a.sessions {
			byID[s.id] = i
			bySeed[s.params.Seed] = i
		}
	}
	local := map[string]int{}
	for _, c := range rec.conns {
		if c.analyst >= 0 {
			local[c.LocalAddr().String()] = c.analyst
			out[c.analyst].cwrites = append(out[c.analyst].cwrites, c.writes...)
			out[c.analyst].creads = append(out[c.analyst].creads, c.reads...)
		}
	}
	for _, c := range rec.conns {
		if c.analyst < 0 {
			if i, ok := local[c.RemoteAddr().String()]; ok {
				out[i].service = append(out[i].service, serviceSpans(c)...)
			}
		}
	}
	for _, ti := range rec.insts {
		if i, ok := bySeed[ti.seed]; ok {
			out[i].mech = append(out[i].mech, ti.spans...)
		}
	}
	for _, sp := range rec.appends {
		if i, ok := byID[sp.id]; ok {
			out[i].store = append(out[i].store, sp)
		}
	}
	for i := range out {
		s := &out[i]
		slices.SortFunc(s.service, func(a, b serviceSpan) int { return cmp.Compare(a.t0, b.t0) })
		slices.SortFunc(s.cwrites, func(a, b ioEvent) int { return cmp.Compare(a.t0, b.t0) })
		slices.SortFunc(s.creads, func(a, b ioEvent) int { return cmp.Compare(a.t1, b.t1) })
		slices.SortFunc(s.mech, func(a, b mechSpan) int { return cmp.Compare(a.t0, b.t0) })
		slices.SortFunc(s.store, func(a, b storeSpan) int { return cmp.Compare(a.t0, b.t0) })
	}
	return out
}

// within advances *i past entries starting before lo and returns the
// index range of entries starting in [lo, hi].
func within[T any](xs []T, i *int, lo, hi int64, start func(T) int64) (int, int) {
	for *i < len(xs) && start(xs[*i]) < lo {
		*i++
	}
	j := *i
	for j < len(xs) && start(xs[j]) <= hi {
		j++
	}
	return *i, j
}

// costs splits each of an analyst's window calls across the layers.
// Calls are sequential (closed loop), so one forward pass suffices.
func costs(a *analyst, s *analystSpans) []callCost {
	var out []callCost
	var si, wi, ri, mi, sti int
	for _, c := range a.calls {
		if c.phase != phaseWindow {
			continue
		}
		cc := callCost{kind: c.kind, t0: c.t0, rtt: c.t1 - c.t0}
		lo, hi := within(s.cwrites, &wi, c.t0, c.t1, func(e ioEvent) int64 { return e.t0 })
		first := int64(-1)
		for _, w := range s.cwrites[lo:hi] {
			if first < 0 {
				first = w.t0
			}
			cc.clientSock += w.t1 - w.t0
			cc.clientWrites++
			cc.clientBytes += w.n
		}
		lo, hi = within(s.creads, &ri, c.t0, c.t1, func(e ioEvent) int64 { return e.t1 })
		last := int64(-1)
		for _, r := range s.creads[lo:hi] {
			last = r.t1
			cc.clientBytes += r.n
		}
		if first >= 0 && last >= 0 {
			cc.clientSelf = (first - c.t0) + (c.t1 - last)
		}
		lo, hi = within(s.service, &si, c.t0, c.t1, func(e serviceSpan) int64 { return e.t0 })
		if hi > lo && s.service[lo].t1 <= c.t1 {
			sv := s.service[lo]
			cc.hasService = true
			cc.service = sv.t1 - sv.t0
			cc.serverWrites = sv.writes
			mlo, mhi := within(s.mech, &mi, sv.t0, sv.t1, func(e mechSpan) int64 { return e.t0 })
			for _, m := range s.mech[mlo:mhi] {
				cc.mech += m.busy
				cc.answers += m.answers
				cc.refused += m.refused
			}
			slo, shi := within(s.store, &sti, sv.t0, sv.t1, func(e storeSpan) int64 { return e.t0 })
			for _, st := range s.store[slo:shi] {
				cc.store += st.t1 - st.t0
				cc.appends += st.events
			}
			cc.serverSelf = cc.service - cc.mech - cc.store
		}
		cc.unattributed = cc.rtt - cc.clientSelf - cc.clientSock - cc.service
		out = append(out, cc)
	}
	return out
}

// writeSpans writes one CSV row per traced request: its kind, start and
// layer split in nanoseconds, and the answers and journal appends inside.
func writeSpans(path string, cs []callCost) error {
	var b bytes.Buffer
	b.WriteString("kind,start_ns,rtt_ns,client_ns,client_socket_ns,server_ns,mech_ns,store_ns,unattributed_ns,answers,appends\n")
	for _, c := range cs {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n", opNames[c.kind], c.t0, c.rtt,
			c.clientSelf, c.clientSock, c.serverSelf, c.mech, c.store, c.unattributed, c.answers, c.appends)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
