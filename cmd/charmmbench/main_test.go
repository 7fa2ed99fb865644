package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureBytesIndependentOfKernelWorkers builds the command and renders
// the quick figure 3 with the kernels inline and on three workers: the
// kernels have one arithmetic, so the bytes are the same, and they are the
// figure the core package pins.
func TestFigureBytesIndependentOfKernelWorkers(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "charmmbench")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/charmmbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(kw string) []byte {
		t.Helper()
		out, err := exec.Command(bin, "-figure", "3", "-quick", "-kernel-workers", kw).Output()
		if err != nil {
			t.Fatalf("charmmbench -figure 3 -quick -kernel-workers %s: %v", kw, err)
		}
		return out
	}
	inline, pooled := run("0"), run("3")
	if !strings.HasPrefix(string(inline), "Figure 3 ") {
		t.Fatalf("no figure 3 on stdout:\n%s", inline)
	}
	if !bytes.Equal(inline, pooled) {
		t.Fatalf("-kernel-workers 0 and 3 print different figures:\n%s\nvs\n%s", inline, pooled)
	}
}
