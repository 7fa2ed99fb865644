package fft

// The butterfly passes. s holds n rows of `width` values each — `width`
// independent transforms side by side, row p being element p of every one
// of them — in the leaf order of tables.perm. After the last pass row k is
// output bin k. width = 1 is the plain 1-D transform and has its own
// kernels without the column loop.
//
// Every kernel forms every output as acc[0] + tw₁·acc[1] + tw₂·acc[2] + …
// in exactly that association, with one full complex multiply per term.
// Two textbook shortcuts would change result bits and are not taken:
//
//   - radix 2 does not reuse the first product as a − tw·b for the second
//     output. Its twiddle w[(m+k)·step] and −w[k·step] both come out of
//     cmplx.Exp separately and differ in the last place for most k.
//   - multiplies by w[0] = (1, −0) are not skipped: (1, −0)·(a, b) has real
//     part a − (−0·b), which turns a = −0 into +0 when b > 0, so skipping
//     the multiply changes signed zeros (the bits golden has such rows).

func (t *tables) butterflies(s []complex128, width int) {
	for i := range t.levels {
		lv := &t.levels[i]
		switch {
		case width == 1 && lv.r == 2:
			pass2(s, lv.tw, lv.m)
		case width == 1 && lv.r == 3:
			pass3(s, lv.tw, lv.m)
		case width == 1 && lv.r == 5:
			pass5(s, lv.tw, lv.m)
		case lv.r == 2:
			rows2(s, lv.tw, lv.m, width)
		case lv.r == 3:
			rows3(s, lv.tw, lv.m, width)
		case lv.r == 5:
			rows5(s, lv.tw, lv.m, width)
		default:
			rowsN(s, lv.tw, lv.r, lv.m, width)
		}
	}
}

func pass2(s, tw []complex128, m int) {
	for ; len(s) >= 2*m; s = s[2*m:] {
		b0, b1 := s[:m], s[m:2*m]
		for k := range b0 {
			t := tw[2*k : 2*k+2 : 2*k+2]
			a0, a1 := b0[k], b1[k]
			b0[k] = a0 + t[0]*a1
			b1[k] = a0 + t[1]*a1
		}
	}
}

func pass3(s, tw []complex128, m int) {
	for ; len(s) >= 3*m; s = s[3*m:] {
		b0, b1, b2 := s[:m], s[m:2*m], s[2*m:3*m]
		for k := range b0 {
			t := tw[6*k : 6*k+6 : 6*k+6]
			a0, a1, a2 := b0[k], b1[k], b2[k]
			b0[k] = a0 + t[0]*a1 + t[1]*a2
			b1[k] = a0 + t[2]*a1 + t[3]*a2
			b2[k] = a0 + t[4]*a1 + t[5]*a2
		}
	}
}

func pass5(s, tw []complex128, m int) {
	for ; len(s) >= 5*m; s = s[5*m:] {
		b0, b1, b2, b3, b4 := s[:m], s[m:2*m], s[2*m:3*m], s[3*m:4*m], s[4*m:5*m]
		for k := range b0 {
			t := tw[20*k : 20*k+20 : 20*k+20]
			a0, a1, a2, a3, a4 := b0[k], b1[k], b2[k], b3[k], b4[k]
			b0[k] = a0 + t[0]*a1 + t[1]*a2 + t[2]*a3 + t[3]*a4
			b1[k] = a0 + t[4]*a1 + t[5]*a2 + t[6]*a3 + t[7]*a4
			b2[k] = a0 + t[8]*a1 + t[9]*a2 + t[10]*a3 + t[11]*a4
			b3[k] = a0 + t[12]*a1 + t[13]*a2 + t[14]*a3 + t[15]*a4
			b4[k] = a0 + t[16]*a1 + t[17]*a2 + t[18]*a3 + t[19]*a4
		}
	}
}

func rows2(s, tw []complex128, m, width int) {
	for ; len(s) >= 2*m*width; s = s[2*m*width:] {
		for k := 0; k < m; k++ {
			t0, t1 := tw[2*k], tw[2*k+1]
			r0 := s[k*width : (k+1)*width]
			r1 := s[(m+k)*width : (m+k+1)*width]
			for c := range r0 {
				a0, a1 := r0[c], r1[c]
				r0[c] = a0 + t0*a1
				r1[c] = a0 + t1*a1
			}
		}
	}
}

func rows3(s, tw []complex128, m, width int) {
	for ; len(s) >= 3*m*width; s = s[3*m*width:] {
		for k := 0; k < m; k++ {
			t := tw[6*k : 6*k+6 : 6*k+6]
			r0 := s[k*width : (k+1)*width]
			r1 := s[(m+k)*width : (m+k+1)*width]
			r2 := s[(2*m+k)*width : (2*m+k+1)*width]
			for c := range r0 {
				a0, a1, a2 := r0[c], r1[c], r2[c]
				r0[c] = a0 + t[0]*a1 + t[1]*a2
				r1[c] = a0 + t[2]*a1 + t[3]*a2
				r2[c] = a0 + t[4]*a1 + t[5]*a2
			}
		}
	}
}

func rows5(s, tw []complex128, m, width int) {
	for ; len(s) >= 5*m*width; s = s[5*m*width:] {
		for k := 0; k < m; k++ {
			t := tw[20*k : 20*k+20 : 20*k+20]
			r0 := s[k*width : (k+1)*width]
			r1 := s[(m+k)*width : (m+k+1)*width]
			r2 := s[(2*m+k)*width : (2*m+k+1)*width]
			r3 := s[(3*m+k)*width : (3*m+k+1)*width]
			r4 := s[(4*m+k)*width : (4*m+k+1)*width]
			for c := range r0 {
				a0, a1, a2, a3, a4 := r0[c], r1[c], r2[c], r3[c], r4[c]
				r0[c] = a0 + t[0]*a1 + t[1]*a2 + t[2]*a3 + t[3]*a4
				r1[c] = a0 + t[4]*a1 + t[5]*a2 + t[6]*a3 + t[7]*a4
				r2[c] = a0 + t[8]*a1 + t[9]*a2 + t[10]*a3 + t[11]*a4
				r3[c] = a0 + t[12]*a1 + t[13]*a2 + t[14]*a3 + t[15]*a4
				r4[c] = a0 + t[16]*a1 + t[17]*a2 + t[18]*a3 + t[19]*a4
			}
		}
	}
}

// rowsN is the butterfly for any prime radix up to maxRadix, at any width.
func rowsN(s, tw []complex128, r, m, width int) {
	var acc [maxRadix]complex128
	for ; len(s) >= r*m*width; s = s[r*m*width:] {
		for k := 0; k < m; k++ {
			t := tw[k*r*(r-1) : (k+1)*r*(r-1)]
			for c := 0; c < width; c++ {
				for q := 0; q < r; q++ {
					acc[q] = s[(q*m+k)*width+c]
				}
				i := 0
				for out := 0; out < r; out++ {
					sum := acc[0]
					for _, a := range acc[1:r] {
						sum += t[i] * a
						i++
					}
					s[(out*m+k)*width+c] = sum
				}
			}
		}
	}
}
