package work

import (
	"testing"
	"testing/quick"
)

func TestSub(t *testing.T) {
	a := Counters{BondTerms: 3, PairEvals: 10, GridCharges: 5, FFTOps: 100}
	b := Counters{BondTerms: 2, GridCharges: 5}
	want := Counters{BondTerms: 1, PairEvals: 10, FFTOps: 100}
	if got := a.Sub(b); got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}

func TestIsZero(t *testing.T) {
	if !(Counters{}).IsZero() {
		t.Fatal("zero counters not zero")
	}
	if (Counters{Other: 1}).IsZero() {
		t.Fatal("nonzero counters reported zero")
	}
}

func TestSubProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		a := Counters{PairEvals: a1, FFTOps: a2}
		b := Counters{PairEvals: b1, FFTOps: b2}
		return a.Sub(b).Sub(a.Sub(b)).IsZero() && a.Sub(a.Sub(b)) == b && a.Sub(Counters{}) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
