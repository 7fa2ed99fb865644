package topol

import "sort"

// adjacency builds per-atom sorted neighbour lists from the bond list.
func adjacency(n int, bonds [][2]int32) [][]int32 {
	adj := make([][]int32, n)
	for _, b := range bonds {
		adj[b[0]] = append(adj[b[0]], b[1])
		adj[b[1]] = append(adj[b[1]], b[0])
	}
	for i := range adj {
		sort.Slice(adj[i], func(a, b int) bool { return adj[i][a] < adj[i][b] })
	}
	return adj
}

// DeriveConnectivity fills Angles, Dihedrals, Excl and Pairs14 from the bond
// list, the way CHARMM's structure generation does:
//
//   - an angle (i, j, k) for every pair of distinct neighbours i < k of a
//     center j;
//   - a dihedral (i, j, k, l) for every bond (j, k) and neighbours i of j,
//     l of k, with i ≠ k, l ≠ j, i ≠ l, deduplicated by orientation;
//   - exclusions: 1-2 and 1-3 neighbours;
//   - 1-4 pairs: atoms at graph distance exactly three, not also at a
//     shorter distance through another path.
//
// Impropers are NOT derived; builders add them explicitly at planar centers.
func (s *System) DeriveConnectivity() {
	n := s.N()
	adj := adjacency(n, s.Bonds)

	s.Angles = s.Angles[:0]
	for j := 0; j < n; j++ {
		nb := adj[j]
		for a := 0; a < len(nb); a++ {
			for b := a + 1; b < len(nb); b++ {
				s.Angles = append(s.Angles, [3]int32{nb[a], int32(j), nb[b]})
			}
		}
	}

	s.Dihedrals = s.Dihedrals[:0]
	for _, bond := range s.Bonds {
		j, k := bond[0], bond[1]
		for _, i := range adj[j] {
			if i == k {
				continue
			}
			for _, l := range adj[k] {
				if l == j || l == i {
					continue
				}
				// Canonical orientation: smaller outer atom first when the
				// bond could be traversed both ways; here each bond appears
				// once in s.Bonds so (i,j,k,l) is already unique.
				s.Dihedrals = append(s.Dihedrals, [4]int32{i, j, k, l})
			}
		}
	}

	// Exclusions (1-2, 1-3) and the 1-4 set via a 3-step BFS per atom.
	exclSets := make([][]int32, n)
	var pairs14 [][2]int32
	dist := make([]int8, n)
	for i := range dist {
		dist[i] = -1
	}
	var frontier, next []int32
	for src := 0; src < n; src++ {
		// BFS to depth 3.
		var touched []int32
		dist[src] = 0
		touched = append(touched, int32(src))
		frontier = frontier[:0]
		frontier = append(frontier, int32(src))
		for d := int8(1); d <= 3; d++ {
			next = next[:0]
			for _, u := range frontier {
				for _, v := range adj[u] {
					if dist[v] == -1 {
						dist[v] = d
						touched = append(touched, v)
						next = append(next, v)
					}
				}
			}
			frontier, next = next, frontier
		}
		for _, v := range touched {
			if v == int32(src) {
				continue
			}
			switch dist[v] {
			case 1, 2:
				exclSets[src] = append(exclSets[src], v)
			case 3:
				if v > int32(src) {
					pairs14 = append(pairs14, [2]int32{int32(src), v})
				}
			}
		}
		for _, v := range touched {
			dist[v] = -1
		}
	}
	s.Excl = NewExclusions(exclSets)
	s.Pairs14 = pairs14
}
