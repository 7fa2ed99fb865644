// Package analysis provides the standard trajectory analyses an MD user
// expects next to the engine: radial distribution functions and mean-square
// displacement.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/space"
	"repro/internal/vec"
)

// RDF computes the radial distribution function g(r) between the atom
// index sets selA and selB over one configuration, with bins of width dr
// up to rmax. Returns the bin centers and g values. Self-pairs (the same
// atom appearing in both selections) are skipped. rmax must respect the
// minimum-image limit of the box.
func RDF(box space.Box, pos []vec.V, selA, selB []int32, rmax, dr float64) (r, g []float64, err error) {
	if dr <= 0 || rmax <= 0 {
		return nil, nil, fmt.Errorf("analysis: RDF needs positive dr and rmax")
	}
	if rmax > box.MaxCutoff() {
		return nil, nil, fmt.Errorf("analysis: rmax %g beyond minimum-image limit %g", rmax, box.MaxCutoff())
	}
	if len(selA) == 0 || len(selB) == 0 {
		return nil, nil, fmt.Errorf("analysis: empty selection")
	}
	nbins := int(rmax / dr)
	counts := make([]float64, nbins)
	pairs := 0
	for _, i := range selA {
		for _, j := range selB {
			if i == j {
				continue
			}
			pairs++
			d := box.Dist(pos[i], pos[j])
			if d >= rmax {
				continue
			}
			// When rmax is not a whole number of bins, distances in the
			// partial last interval [nbins*dr, rmax) have no bin: the
			// histogram's effective range is nbins*dr.
			if b := int(d / dr); b < nbins {
				counts[b]++
			}
		}
	}
	if pairs == 0 {
		return nil, nil, fmt.Errorf("analysis: no distinct pairs in selection")
	}
	// Normalize by the ideal-gas expectation: pairs·(4πr²dr)/V per bin.
	volume := box.Volume()
	r = make([]float64, nbins)
	g = make([]float64, nbins)
	for b := 0; b < nbins; b++ {
		rc := (float64(b) + 0.5) * dr
		r[b] = rc
		shell := 4 * math.Pi * rc * rc * dr
		ideal := float64(pairs) * shell / volume
		if ideal > 0 {
			g[b] = counts[b] / ideal
		}
	}
	return r, g, nil
}

// RDFFrames averages RDF over several configurations.
func RDFFrames(box space.Box, frames [][]vec.V, selA, selB []int32, rmax, dr float64) (r, g []float64, err error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("analysis: no frames")
	}
	for fi, f := range frames {
		rf, gf, err := RDF(box, f, selA, selB, rmax, dr)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: frame %d: %w", fi, err)
		}
		if g == nil {
			r, g = rf, gf
			continue
		}
		for i := range g {
			g[i] += gf[i]
		}
	}
	for i := range g {
		g[i] /= float64(len(frames))
	}
	return r, g, nil
}

// MSD computes the mean-square displacement ⟨|r(t) − r(0)|²⟩ over the
// selected atoms for each frame relative to the first. Positions must be
// unwrapped (the MD engine never wraps during dynamics, so engine
// trajectories qualify).
func MSD(frames [][]vec.V, sel []int32) ([]float64, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("analysis: no frames")
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("analysis: empty selection")
	}
	ref := frames[0]
	out := make([]float64, len(frames))
	for t, f := range frames {
		if len(f) != len(ref) {
			return nil, fmt.Errorf("analysis: frame %d has %d atoms, frame 0 has %d", t, len(f), len(ref))
		}
		var s float64
		for _, i := range sel {
			s += vec.Dist2(f[i], ref[i])
		}
		out[t] = s / float64(len(sel))
	}
	return out, nil
}

// SelectByName returns the indices of atoms whose name matches, given the
// parallel name list (e.g. from a topology).
func SelectByName(names []string, want string) []int32 {
	var out []int32
	for i, n := range names {
		if n == want {
			out = append(out, int32(i))
		}
	}
	return out
}
