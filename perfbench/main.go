// Command perfbench is the repository's end-to-end benchmark: it serves
// real traffic through svtserve's own components over loopback sockets,
// checks every released answer against a seeded in-process reference,
// and prints end-to-end metrics (or, traced, per-layer metrics and a
// per-request cost table). See README.md for the workloads and metrics.
//
//	perfbench --workload wire-interactive --seed 1 --seconds 10 --trace 0
//
// Each run is supervised: the measuring process is a fresh child, so a
// fatal error in the server fails the run loudly with its stderr and its
// unanswered operations counted, and is never retried.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setups is how many times an untraced run sets up, to report the
	// median set-up time and, on the wire workloads, to time enough
	// creates for a steady p99.
	setups = 10
	// recoveries is the least number of times an untraced run restarts
	// from the run's WAL, to report the median recovery time; it keeps
	// restarting for a second.
	recoveries = 5
	// childTimeout bounds one run.
	childTimeout = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		dir     = flag.String("dir", ".bench_build", "directory for WALs and the traced run's spans")
		spans   = flag.String("spans", "", "file the traced run writes its per-request spans to (set by the supervisor)")
		isChild = flag.Bool("child", false, "run the measurement in this process (set by the supervisor)")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *isChild {
		os.Exit(child(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *dir, *spans))
	}
	runDir := filepath.Join(*dir, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
		"-trace", fmt.Sprint(*traced), "-dir", runDir,
		"-spans", filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.csv", w.name, *seed)))
	// The child must not outlive a supervisor that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	code := supervise(cmd, os.Stdout)
	cancel()
	os.RemoveAll(runDir)
	os.Exit(code)
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childOut is the child's final line: the result plus the report lines
// the supervisor prints above it.
type childOut struct {
	Result result   `json:"result"`
	Report []string `json:"report"`
}

// Child stdout protocol: heartbeat lines, then one final line.
const (
	progressPrefix = "progress "
	resultPrefix   = "result "
)

// supervise runs the child, relays its report and result, and turns a
// child that dies without a result — a runtime fatal, a panic, a kill at
// the timeout — into a failed run: its stderr is printed and every
// analyst that was mid-run counts one unanswered operation.
func supervise(cmd *exec.Cmd, stdout io.Writer) int {
	var stderr tail
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var done, running int
	var out *childOut
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, progressPrefix):
			fmt.Sscan(line[len(progressPrefix):], &done, &running)
		case strings.HasPrefix(line, resultPrefix):
			var co childOut
			if err := json.Unmarshal([]byte(line[len(resultPrefix):]), &co); err == nil {
				out = &co
			}
		}
	}
	werr := cmd.Wait()
	if werr != nil || out == nil {
		fmt.Fprintf(stdout, "run failed: measuring process ended (%v) without a result; it is not retried\n", werr)
		for _, l := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
			fmt.Fprintln(stdout, "  stderr:", l)
		}
		failed := max(running, 1)
		printResult(stdout, result{Attempted: done + failed, Failed: failed, Metrics: map[string]valued{}})
		return 1
	}
	for _, l := range out.Report {
		fmt.Fprintln(stdout, l)
	}
	printResult(stdout, out.Result)
	if !out.Result.Correct {
		return 1
	}
	return 0
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a result holds only plain numbers and strings
	}
	fmt.Fprintln(w, string(b))
}

// tail keeps the last 16 KiB written to it.
type tail struct{ b []byte }

func (t *tail) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if n := len(t.b) - 16<<10; n > 0 {
		t.b = t.b[n:]
	}
	return len(p), nil
}

func (t *tail) String() string { return string(t.b) }

// child measures one run and prints heartbeats and its result on stdout.
func child(w *workload, seed uint64, window time.Duration, traced bool, dir, spans string) int {
	var done, running atomic.Int64
	stop := make(chan struct{})
	beat := make(chan struct{})
	go func() {
		defer close(beat)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fmt.Printf("%s%d %d\n", progressPrefix, done.Load(), running.Load())
			}
		}
	}()
	co, err := measure(&runOpts{w: w, seed: seed, window: window, dir: dir, done: &done, running: &running}, traced, spans)
	close(stop)
	<-beat
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(co)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s%s\n", resultPrefix, b)
	return 0
}

// measure runs the untraced phase and, when traced, the traced phase
// after it, and assembles the result and report. The traced phase's
// spans, attributed to their requests, are written to spans.
func measure(o *runOpts, traced bool, spans string) (*childOut, error) {
	o.setups, o.recoveries, o.recoveryTime, o.checkTime = setups, recoveries, time.Second, time.Second/2
	if traced {
		o.setups, o.recoveries, o.recoveryTime, o.checkTime = 1, 1, 0, 0
	}
	plain, err := runPhase(o)
	if err != nil {
		return nil, err
	}
	phases := []*phaseOut{plain}
	e2e := endToEnd(o.w, plain)
	report := []string{fmt.Sprintf("%s seed %d: %d analysts, closed loop, %.2f s window", o.w.name, o.seed, analysts, plain.windowSeconds())}
	report = append(report, formatMetrics(append(e2e,
		metric{"sessions_per_s", lifecycleRate(plain), "1/s", true}))...)
	reported := e2e
	if traced {
		tr := *o
		tr.rec = &recorder{}
		tp, err := runPhase(&tr)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		phases = append(phases, tp)
		layers, table, costs := perLayer(o.w, plain, tp, tr.rec)
		if err := writeSpans(spans, costs); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		report = append(report, "per-layer (traced run):")
		report = append(report, formatMetrics(layers)...)
		report = append(report, table...)
		report = append(report, "per-request spans: "+spans)
		reported = layers
	}
	res := result{Metrics: map[string]valued{}}
	for _, p := range phases {
		for _, a := range p.analysts {
			for ph := range a.lat {
				for _, l := range a.lat[ph] {
					res.Attempted += len(l)
				}
			}
			res.Failed += a.failed
			for _, e := range a.errs {
				report = append(report, "error: "+e)
			}
		}
		res.Failed += p.mismatched
		for _, m := range p.mismatches {
			report = append(report, "mismatch: "+m)
		}
	}
	res.Correct = res.Failed == 0
	report = append(report, fmt.Sprintf("  %-28s %14.6g fraction (%d of %d operations failed, shed, ambiguous or mismatched)",
		"failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted))
	for _, m := range reported {
		if !m.reportOnly {
			res.Metrics[m.name] = valued{Value: m.value, Unit: m.unit}
		}
	}
	return &childOut{Result: res, Report: report}, nil
}
