package fft

import (
	"math"
	"math/cmplx"
	"sync"
)

// maxRadix is the largest prime handled by the direct mixed-radix butterfly;
// sizes containing a larger prime factor go through Bluestein.
const maxRadix = 31

// tables is the immutable half of a plan: everything about a length-n
// transform that does not change between calls. One tables value serves
// every Plan of its length, on any goroutine.
//
// A smooth transform is decimation in time over the prime factors of n in
// ascending order. Written as a recursion, level ℓ splits a length-nℓ
// sequence into rℓ interleaved subsequences, transforms each, and combines
// them; perm is the order in which that recursion reaches its leaves, so
// after one permuting load every sub-transform of every level is a
// contiguous block and the levels run as in-place passes, deepest first.
type tables struct {
	n      int
	perm   []int32 // perm[p] = index of the input element loaded to position p
	levels []level // deepest level first; empty for n = 1 and for Bluestein
	chirp  *chirp  // non-nil when n has a prime factor > maxRadix
}

// level is one butterfly pass: every block of r·m elements holds r finished
// length-m transforms back to back and becomes one length-r·m transform.
// Output out·m+k of a block is
//
//	acc[0] + tw₁·acc[1] + tw₂·acc[2] + … + tw_{r−1}·acc[r−1],  acc[q] = block[q·m+k],
//
// summed left to right, with tw_q = w[(q·(out·m+k) mod r·m)·n/(r·m)] read
// from tw[(k·r+out)·(r−1) + q−1]: the twiddles of one k lie together in the
// order the butterfly consumes them, so the pass does no index arithmetic
// beyond a running offset.
type level struct {
	r, m int
	tw   []complex128
}

// chirp holds the constants of Bluestein's algorithm for length n: a DFT
// as a cyclic convolution of size m, the next power of two ≥ 2n−1.
type chirp struct {
	m  int
	a  []complex128 // exp(−πi j²/n)
	bf []complex128 // length-m transform of the conjugate chirp
}

// memo shares tables between plans of equal length. Every simulated rank
// builds the same handful of plans, so without it a figure run computes and
// stores the same twiddles hundreds of times. Entries are never dropped:
// the lengths a process transforms are its PME mesh dimensions, a small
// set, and one entry costs O(n·Σ(r−1)) complex values.
var memo struct {
	sync.Mutex
	byLen map[int]*tables
}

func tablesFor(n int) *tables {
	memo.Lock()
	t := memo.byLen[n]
	memo.Unlock()
	if t != nil {
		return t
	}
	// Built outside the lock: a Bluestein length builds the plan of its
	// power-of-two convolution on the way. Two goroutines may both build;
	// the first to store wins and the other's copy is dropped.
	t = newTables(n)
	memo.Lock()
	defer memo.Unlock()
	if prev := memo.byLen[n]; prev != nil {
		return prev
	}
	if memo.byLen == nil {
		memo.byLen = map[int]*tables{}
	}
	memo.byLen[n] = t
	return t
}

func newTables(n int) *tables {
	t := &tables{n: n, perm: make([]int32, n)}
	if !smooth(n) {
		for i := range t.perm {
			t.perm[i] = int32(i)
		}
		t.chirp = newChirp(n)
		return t
	}
	f := factorize(n)
	// Position p, read as mixed-radix digits q₀ q₁ … with q₀ most
	// significant (radices f₀ f₁ …), holds input element
	// q₀ + q₁·f₀ + q₂·f₀f₁ + …: digit ℓ picks the subsequence at level ℓ.
	for p := range t.perm {
		rem, span, idx, mul := p, n, 0, 1
		for _, r := range f {
			span /= r
			idx += rem / span * mul
			rem %= span
			mul *= r
		}
		t.perm[p] = int32(idx)
	}
	// Every level copies its twiddles out of the one length-n table, so the
	// passes multiply by the very values the recursion would look up.
	w := twiddles(n)
	t.levels = make([]level, len(f))
	nl, step := n, 1 // sub-transform length at this level; nl·step = n
	for l, r := range f {
		m := nl / r
		tw := make([]complex128, 0, nl*(r-1))
		for k := 0; k < m; k++ {
			for out := 0; out < r; out++ {
				for q := 1; q < r; q++ {
					tw = append(tw, w[q*(out*m+k)%nl*step])
				}
			}
		}
		t.levels[len(f)-1-l] = level{r: r, m: m, tw: tw}
		nl, step = m, step*r
	}
	return t
}

func newChirp(n int) *chirp {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	c := &chirp{m: m, a: make([]complex128, n)}
	for j := 0; j < n; j++ {
		// j² mod 2n keeps the argument small for large n.
		e := (int64(j) * int64(j)) % int64(2*n)
		theta := -math.Pi * float64(e) / float64(n)
		c.a[j] = cmplx.Exp(complex(0, theta))
	}
	bvec := make([]complex128, m)
	bvec[0] = complex(real(c.a[0]), -imag(c.a[0]))
	for j := 1; j < n; j++ {
		v := complex(real(c.a[j]), -imag(c.a[j]))
		bvec[j] = v
		bvec[m-j] = v
	}
	NewPlan(m).Forward(bvec)
	c.bf = bvec
	return c
}

func twiddles(n int) []complex128 {
	w := make([]complex128, n)
	for j := range w {
		theta := -2 * math.Pi * float64(j) / float64(n)
		w[j] = cmplx.Exp(complex(0, theta))
	}
	return w
}

func factorize(n int) []int {
	var f []int
	for _, q := range []int{2, 3, 5, 7} {
		for n%q == 0 {
			f = append(f, q)
			n /= q
		}
	}
	for q := 11; q*q <= n; q += 2 {
		for n%q == 0 {
			f = append(f, q)
			n /= q
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}

// smooth reports whether every prime factor of n is at most maxRadix.
func smooth(n int) bool {
	for _, q := range [...]int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31} {
		for n%q == 0 {
			n /= q
		}
	}
	return n == 1
}

// Ops returns the analytic floating-point operation count of one length-n
// transform, the quantity the performance model charges: ~5·n·log₂(n) for
// smooth sizes, and the cost of the three embedded power-of-two transforms
// for Bluestein. It needs no plan.
func Ops(n int) int64 {
	if !smooth(n) {
		m := 1.0
		for m < float64(2*n-1) {
			m *= 2
		}
		return int64(3*5*m*math.Log2(m) + 8*m)
	}
	if n < 2 {
		return 1
	}
	return int64(5 * float64(n) * math.Log2(float64(n)))
}

// Ops3D returns the modelled flop count of one nx×ny×nz complex transform.
func Ops3D(nx, ny, nz int) int64 {
	return int64(ny*nz)*Ops(nx) + int64(nx*nz)*Ops(ny) + int64(nx*ny)*Ops(nz)
}
