package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestSuperviseCapturesFatal: a measuring process killed by a runtime
// fatal fails the run, with the fatal's stderr in the output and each
// mid-run analyst's outstanding operation counted as failed.
func TestSuperviseCapturesFatal(t *testing.T) {
	cmd := exec.Command("sh", "-c", `echo 'progress 40 2'
echo 'fatal error: concurrent map read and map write' >&2
echo 'goroutine 7 [running]:' >&2
exit 2`)
	var out bytes.Buffer
	if code := supervise(cmd, &out); code == 0 {
		t.Fatalf("exit code 0 for a crashed run:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fatal error: concurrent map read and map write") {
		t.Fatalf("fatal's stderr not recorded:\n%s", out.String())
	}
	r := lastResult(t, out.String())
	if r.Correct || r.Failed != 2 || r.Attempted != 42 {
		t.Fatalf("result %+v, want correct=false failed=2 attempted=42", r)
	}
}

func TestSuperviseRelaysResult(t *testing.T) {
	cmd := exec.Command("sh", "-c", `echo 'progress 5 2'
echo 'result {"result":{"correct":true,"attempted":9,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}},"report":["hello"]}'`)
	var out bytes.Buffer
	if code := supervise(cmd, &out); code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out.String())
	}
	r := lastResult(t, out.String())
	if !r.Correct || r.Attempted != 9 || r.Metrics["setup_s"].Value != 0.5 || !strings.HasPrefix(out.String(), "hello\n") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}
