package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// build compiles the command into a temporary directory and returns the
// directory and the binary.
func build(t *testing.T) (dir, bin string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "mdserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mdserve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, bin
}

// TestServeSubmitFetchDrain builds the command and walks the quickstart of
// its doc comment against the real process: listen on a picked port,
// accept a run job, serve its result, answer the same spec from the store,
// and drain cleanly on SIGINT.
func TestServeSubmitFetchDrain(t *testing.T) {
	dir, bin := build(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", filepath.Join(dir, "state"), "-drain-timeout", "20s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // a no-op once Wait below has reaped it
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatalf("mdserve printed nothing; stderr %q", stderr.String())
	}
	fields := strings.Fields(lines.Text()) // mdserve: listening on <addr> (state <dir>)
	if len(fields) < 4 || fields[1] != "listening" {
		t.Fatalf("first line %q, want the listen announcement", lines.Text())
	}
	base := "http://" + fields[3]

	call := func(method, path, body string, out interface{}) int {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf, _ := io.ReadAll(resp.Body)
		if out != nil {
			if err := json.Unmarshal(buf, out); err != nil {
				t.Fatalf("%s %s: %v in %q", method, path, err, buf)
			}
		}
		return resp.StatusCode
	}
	const submit = `{"tenant":"alice","spec":{"kind":"run","atoms":48,"steps":4}}`
	var job struct {
		ID, Status string
		Cached     bool
	}
	if code := call("POST", "/v1/jobs", submit, &job); code != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit answered %d %+v", code, job)
	}
	id := job.ID
	for deadline := time.Now().Add(time.Minute); job.Status != "done"; {
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after a minute", job.Status)
		}
		call("GET", "/v1/jobs/"+id+"?wait=5s", "", &job)
	}
	var result map[string]interface{}
	if code := call("GET", "/v1/jobs/"+id+"/result", "", &result); code != http.StatusOK || len(result) == 0 {
		t.Fatalf("result answered %d %v", code, result)
	}
	if code := call("POST", "/v1/jobs", submit, &job); code != http.StatusOK || !job.Cached || job.ID != id {
		t.Fatalf("resubmission answered %d %+v, want the cached job %s", code, job, id)
	}

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for lines.Scan() {
		rest = append(rest, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("mdserve exited with %v; stderr %q", err, stderr.String())
	}
	if n := len(rest); n == 0 || !strings.Contains(rest[n-1], "drained cleanly") {
		t.Errorf("after SIGINT mdserve printed %q, want the clean-drain line last", rest)
	}
}

// TestUsageErrorsExit2: a command line mdserve rejects exits 2 with the
// reason on stderr, before it opens any state.
func TestUsageErrorsExit2(t *testing.T) {
	dir, bin := build(t)
	for _, tc := range []struct{ args, want string }{
		{"-kernel-workers -1", "mdserve: -kernel-workers must be >= 0 (got -1)\n"},
		{"-weights alice", "mdserve: bad -weights entry: alice\n"},
		{"-weights alice=0", "mdserve: bad -weights value: alice=0\n"},
	} {
		// A command line mdserve accepts would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, append(strings.Fields(tc.args), "-addr", "127.0.0.1:0", "-state", filepath.Join(dir, "state"))...)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("mdserve %s: %v", tc.args, err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 || string(out) != tc.want {
			t.Errorf("mdserve %s: exit %d, output %q; want exit 2, %q", tc.args, code, out, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "state")); !os.IsNotExist(err) {
		t.Errorf("a rejected command line left a state directory behind (stat: %v)", err)
	}
}
