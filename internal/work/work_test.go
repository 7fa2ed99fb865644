package work

import "testing"

func TestIsZero(t *testing.T) {
	if !(Counters{}).IsZero() {
		t.Fatal("zero counters not zero")
	}
	if (Counters{Other: 1}).IsZero() {
		t.Fatal("nonzero counters reported zero")
	}
}
