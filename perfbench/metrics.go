package main

import "fmt"

// metric is one reported figure. A reportOnly figure is printed in the
// report but left out of the result line: its run-to-run spread on the
// reference box exceeds any bound the benchmark may set (README.md).
type metric struct {
	name       string
	value      float64
	unit       string
	reportOnly bool
}

// latencies returns the round trips, in unit (ns per unit), of an
// analyst set's calls of one kind in one phase.
func latencies(as []*analyst, kind opKind, ph phase, unit float64) []float64 {
	var out []float64
	for _, a := range as {
		for _, ns := range a.lat[ph][kind] {
			out = append(out, float64(ns)/unit)
		}
	}
	return out
}

// windowedQuantile is the median over ten consecutive slices of the
// window of each slice's q-quantile. Each analyst's calls are in order,
// so slicing them by count slices the closed-loop window by time; a
// stall that lands in one slice moves one of ten figures, not the run's.
func windowedQuantile(as []*analyst, kind opKind, ph phase, unit, q float64) float64 {
	const parts = 10
	var qs []float64
	for i := range parts {
		var xs []float64
		for _, a := range as {
			l := a.lat[ph][kind]
			for _, ns := range l[i*len(l)/parts : (i+1)*len(l)/parts] {
				xs = append(xs, float64(ns)/unit)
			}
		}
		qs = append(qs, quantile(xs, q))
	}
	return median(qs)
}

// callsIn counts an analyst set's calls of one kind in one phase.
func callsIn(as []*analyst, kind opKind, ph phase) int {
	n := 0
	for _, a := range as {
		n += len(a.lat[ph][kind])
	}
	return n
}

// endToEnd computes the user-visible metrics of an untraced phase.
// Creates and statuses are timed where each workload makes them: wire
// workloads create during set-up and fetch statuses in the post-run
// check; the lifecycle workload does both inside the window.
func endToEnd(w *workload, o *phaseOut) []metric {
	as := o.analysts
	secs := o.windowSeconds()
	answers := float64(o.answers())
	queries := latencies(as, opQuery, phaseWindow, 1e6)
	// A p99 is the median of ten p99s, each with at least ten calls
	// beyond it: of the window's tenths, or — a wire workload creates only
	// during set-up — of the ten set-ups.
	queryP99 := windowedQuantile(as, opQuery, phaseWindow, 1e6, 0.99)
	createP50, createP99 := quantile(o.createMS, 0.5), median(o.createP99)
	statuses := latencies(as, opStatus, phaseCheck, 1e6)
	if w.lifecycle {
		createP50 = quantile(latencies(as, opCreate, phaseWindow, 1e6), 0.5)
		createP99 = windowedQuantile(as, opCreate, phaseWindow, 1e6, 0.99)
		statuses = latencies(as, opStatus, phaseWindow, 1e6)
	}
	return []metric{
		// Set-up is gated on the CPU it costs, the work a change could
		// move into it; its wall time moves with the box (README.md).
		{"setup_s", median(o.setupCPU), "s", false},
		{"setup_wall_s", median(o.setup), "s", true},
		{"answers_per_s", answers / secs, "1/s", true},
		{"cpu_us_per_answer", ratio(o.cpu.Seconds()*1e6, answers), "us", false},
		{"query_p50_ms", quantile(queries, 0.5), "ms", false},
		{"query_p99_ms", queryP99, "ms", true},
		{"create_p50_ms", createP50, "ms", false},
		{"create_p99_ms", createP99, "ms", true},
		{"status_p50_ms", quantile(statuses, 0.5), "ms", false},
		{"recovery_s", median(o.recovery), "s", true},
		{"rss_peak_mb", o.rssMB, "MiB", true},
		{"journal_bytes_per_answer", ratio(float64(o.h1.AppendedBytes-o.h0.AppendedBytes), answers), "B", false},
	}
}

// lifecycleRate is completed session lifecycles (deletes) per second of
// window: zero on the wire workloads, whose sessions live the whole run.
func lifecycleRate(o *phaseOut) float64 {
	return float64(callsIn(o.analysts, opDelete, phaseWindow)) / o.windowSeconds()
}

// perLayer computes the traced run's layer metrics and its per-answer
// cost table. plain is the untraced phase run in the same process just
// before: the proc.* figures come from it, so they are free of tracing
// allocations, and trace.overhead_frac compares the two.
func perLayer(w *workload, plain, traced *phaseOut, rec *recorder) ([]metric, []string, []callCost) {
	spans := attribute(rec, traced.analysts)
	var all []callCost
	for i, a := range traced.analysts {
		all = append(all, costs(a, &spans[i])...)
	}
	n := float64(len(all))
	var overhead, service, self []float64
	var sum callCost
	for _, c := range all {
		sum.rtt += c.rtt
		sum.clientSelf += c.clientSelf
		sum.clientSock += c.clientSock
		sum.serverSelf += c.serverSelf
		sum.mech += c.mech
		sum.store += c.store
		sum.unattributed += c.unattributed
		sum.clientWrites += c.clientWrites
		sum.clientBytes += c.clientBytes
		sum.serverWrites += c.serverWrites
		sum.answers += c.answers
		sum.refused += c.refused
		sum.appends += c.appends
		if c.hasService {
			overhead = append(overhead, float64(c.rtt-c.service)/1e3)
			service = append(service, float64(c.service)/1e3)
			self = append(self, float64(c.serverSelf)/1e3)
		}
	}
	var news []float64
	for _, s := range rec.news {
		news = append(news, float64(s.t1-s.t0)/1e3)
	}
	var appends, snaps []float64
	for _, s := range rec.appends {
		if s.t0 >= traced.w0 && s.t0 < traced.w1 {
			appends = append(appends, float64(s.t1-s.t0)/1e3)
		}
	}
	for _, s := range rec.snapshots {
		if s.t0 >= traced.w1 {
			snaps = append(snaps, float64(s.t1-s.t0)/1e6)
		}
	}
	h0, h1 := traced.h0, traced.h1
	// Under sync=interval on the mmap journal an append needs no flush at
	// all; the durability barriers are then the interval syncs.
	barriers := float64(h1.Flushes - h0.Flushes)
	if barriers == 0 {
		barriers = float64(h1.Syncs - h0.Syncs)
	}
	pa := float64(plain.answers())
	r0, r1 := plain.rt0, plain.rt1
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, n) }
	ms := []metric{
		{"client.overhead_p50_us", median(overhead), "us", false},
		{"client.writes_per_req", ratio(float64(sum.clientWrites), n), "count", false},
		{"client.bytes_per_req", ratio(float64(sum.clientBytes), n), "B", false},
		{"edge.service_p50_us", quantile(service, 0.5), "us", false},
		{"edge.service_p99_us", quantile(service, 0.99), "us", false},
		{"server.writes_per_req", ratio(float64(sum.serverWrites), n), "count", false},
		{"server.self_p50_us", median(self), "us", false},
		{"mech.answer_ns", ratio(float64(sum.mech), float64(sum.answers)), "ns", false},
		{"mech.answers_per_req", ratio(float64(sum.answers), n), "count", false},
		{"mech.new_us", median(news), "us", false},
		{"mech.refused_frac", ratio(float64(sum.refused), float64(sum.answers)), "fraction", false},
		{"store.append_p50_us", quantile(appends, 0.5), "us", false},
		{"store.append_p99_us", quantile(appends, 0.99), "us", false},
		{"store.appends_per_req", ratio(float64(sum.appends), n), "count", false},
		{"store.appends_per_flush", ratio(float64(h1.Appends-h0.Appends), barriers), "count", false},
		{"store.syncs_per_s", float64(h1.Syncs-h0.Syncs) / traced.windowSeconds(), "1/s", false},
		{"store.snapshot_ms", median(snaps), "ms", false},
		{"proc.allocs_per_answer", ratio(r1.uint(0)-r0.uint(0), pa), "count", false},
		{"proc.alloc_bytes_per_answer", ratio(r1.uint(1)-r0.uint(1), pa), "B", false},
		{"proc.gc_cpu_frac", ratio(r1.float(2)-r0.float(2), r1.float(3)-r0.float(3)), "fraction", false},
		{"proc.gc_pause_p99_us", histQuantile(r0[4], r1[4], 0.99) * 1e6, "us", false},
		{"proc.sched_latency_p99_us", histQuantile(r0[5], r1[5], 0.99) * 1e6, "us", false},
		{"trace.overhead_frac", 1 - ratio(float64(traced.answers())/traced.windowSeconds(), pa/plain.windowSeconds()), "fraction", false},
		{"trace.unattributed_frac", ratio(float64(sum.unattributed), float64(sum.rtt)), "fraction", false},
		{"cost.client_us", us(sum.clientSelf), "us", false},
		{"cost.client_socket_us", us(sum.clientSock), "us", false},
		{"cost.server_us", us(sum.serverSelf), "us", false},
		{"cost.mech_us", us(sum.mech), "us", false},
		{"cost.store_us", us(sum.store), "us", false},
		{"cost.unattributed_us", us(sum.unattributed), "us", false},
	}

	edgeName := "server edge (" + string(w.edge) + ")"
	rows := []struct {
		name string
		ns   int64
	}{
		{"client SDK", sum.clientSelf},
		{"client socket writes", sum.clientSock},
		{edgeName, sum.serverSelf},
		{"mechanism (Answer)", sum.mech},
		{"store (journal append)", sum.store},
		{"unattributed (transit, wake-ups)", sum.unattributed},
	}
	table := []string{
		fmt.Sprintf("per-request cost split, %d %s requests, %.1f answers per request:", len(all), w.name, ratio(float64(sum.answers), n)),
		fmt.Sprintf("  %-34s %12s %12s %8s", "layer", "us/request", "ns/answer", "share"),
	}
	for _, r := range rows {
		table = append(table, fmt.Sprintf("  %-34s %12.2f %12.1f %7.1f%%", r.name, us(r.ns), ratio(float64(r.ns), float64(sum.answers)), 100*ratio(float64(r.ns), float64(sum.rtt))))
	}
	table = append(table, fmt.Sprintf("  %-34s %12.2f %12.1f %7.1f%%", "round trip", us(sum.rtt), ratio(float64(sum.rtt), float64(sum.answers)), 100.0))
	return ms, table, all
}

func formatMetrics(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("  %-28s %14.6g %s", m.name, m.value, m.unit)
		if m.reportOnly {
			out[i] += " (report only)"
		}
	}
	return out
}
