package topol

import (
	"strings"
	"testing"
)

func TestWriteXYZValidation(t *testing.T) {
	s := tinyChain()
	var b strings.Builder
	if err := s.WriteXYZ(&b, s.Pos[:2], "bad"); err == nil {
		t.Fatal("length mismatch accepted")
	}

	// A nil pos writes the system's own frame: atom count, comment, then
	// one "element x y z" line per atom at 8 decimals.
	b.Reset()
	if err := s.WriteXYZ(&b, nil, "frame 0"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2+s.N() || lines[0] != "5" || lines[1] != "frame 0" {
		t.Fatalf("frame header/length wrong:\n%s", b.String())
	}
	if want := "C      6.50000000    25.00000000    25.00000000"; lines[3] != want {
		t.Fatalf("atom line %q, want %q", lines[3], want)
	}
}
