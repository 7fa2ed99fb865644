package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTimelineAndChromeExport builds the command and holds one run to the
// output of the binary built on the last commit where the event sink was
// an interface (testdata/p4_steps2.stdout and the hash below were captured
// there): the rendered timeline, the event count and every byte of the
// Chrome trace must not move.
func TestTimelineAndChromeExport(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	const chromeSHA256 = "0ef289721460f987a290d93e54b762500ac4897fa8db162fd27167fe06da412d"
	dir := t.TempDir()
	bin := filepath.Join(dir, "tracer")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tracer").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "p4_steps2.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-net", "tcp", "-p", "4", "-steps", "2", "-width", "100", "-o", "t.json")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("tracer: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from the parent's:\n%s", got)
	}
	chrome, err := os.ReadFile(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(chrome); hex.EncodeToString(sum[:]) != chromeSHA256 {
		t.Errorf("Chrome trace sha256 %x, want %s", sum, chromeSHA256)
	}

	// tracer has no recovery loop: a crash scenario is a failed run (exit
	// 1, the typed error naming the rank), not a usage error.
	cmd = exec.Command(bin, "-p", "2", "-steps", "2", "-faults", "crash@0.05,rank=1")
	stderr.Reset()
	cmd.Stderr = &stderr
	if err := cmd.Run(); cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 ||
		!strings.HasPrefix(stderr.String(), "tracer: ") || !strings.Contains(stderr.String(), "rank 1") {
		t.Errorf("crash under tracer: %v, stderr %q; want exit 1 and a tracer: line naming rank 1", err, stderr.String())
	}
}
