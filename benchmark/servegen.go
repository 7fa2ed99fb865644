package main

import (
	"repro/internal/md"
	"repro/internal/pmd"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/topol"
)

// serveJob is one entry of a client's job list.
type serveJob struct {
	spec serve.JobSpec
	// repeatOf is the index, in the same client's list, of the earlier job
	// this one repeats (a store hit), or -1 for a unique spec (a miss).
	repeatOf int
}

var (
	serveProcs = []int{2, 4, 8}
	serveMWs   = []string{"mpi", "cmpi"}
	serveNets  = []string{"tcp", "score", "myrinet", "fast"}
	serveObs   = []string{"rdf", "msd"}
)

// systemSeed is the solvated-box seed of one client's deck. Every deck has
// its own, so specs never collide across clients or decks, and the set of
// systems — atoms × these seeds — is fixed before timing starts.
func systemSeed(client, deck, decks int) uint64 {
	return uint64(1 + client*decks + deck)
}

// serveStream generates the job lists of `clients` closed-loop clients
// from the seed. A deck holds every combination of the attributes that
// drive a job's cost exactly once — run: atoms × steps × procs ×
// middleware; analysis: atoms × steps × observable — so each list does
// the same work under every seed. The seed decides the order of each deck
// and which earlier job each repeat re-submits. After every two unique
// specs comes one repeat of a job that client has already completed: one
// third of a list are store hits.
func serveStream(seed uint64, clients int, sz sizes) [][]serveJob {
	lists := make([][]serveJob, clients)
	for c := range lists {
		r := rng.New(seed*0x9e3779b97f4a7c15 + uint64(c) + 1)
		var uniq []serve.JobSpec
		for d := 0; d < sz.serveDecks; d++ {
			deck := serveDeck(systemSeed(c, d, sz.serveDecks), sz)
			for _, i := range r.Perm(len(deck)) {
				uniq = append(uniq, deck[i])
			}
		}
		var done []int // list indices of the unique jobs so far
		list := make([]serveJob, 0, len(uniq)+len(uniq)/2)
		for i, spec := range uniq {
			done = append(done, len(list))
			list = append(list, serveJob{spec: spec, repeatOf: -1})
			if i%2 == 1 {
				orig := done[r.Intn(len(done))]
				list = append(list, serveJob{spec: list[orig].spec, repeatOf: orig})
			}
		}
		lists[c] = list
	}
	return lists
}

// serveDeck is one deck on the systems of sysSeed. The network and the
// decomposition rotate over the combinations by a fixed rule, so every
// (procs, middleware) cell meets every network and both decompositions
// and no seed changes what a deck costs. A combination whose decomposition
// cannot tile the box's PME mesh falls back to the other one, and is
// dropped if neither tiles, so every spec of a deck is valid.
func serveDeck(sysSeed uint64, sz sizes) []serve.JobSpec {
	var deck []serve.JobSpec
	for ai, atoms := range sz.serveAtoms {
		_, mesh := topol.NewSolvatedBox(atoms, sysSeed+1)
		for si, steps := range sz.serveSteps {
			g := ai*len(sz.serveSteps) + si
			for pi, procs := range serveProcs {
				for mi, mw := range serveMWs {
					spec := serve.JobSpec{
						Kind: serve.KindRun, Atoms: atoms, Steps: steps, Seed: sysSeed,
						Procs: procs, MW: mw, Net: serveNets[(g+2*pi+mi)%len(serveNets)],
					}
					decomps := []string{"replicated", "domain"}
					if (g+pi)%2 == 1 {
						decomps[0], decomps[1] = decomps[1], decomps[0]
					}
					for _, d := range decomps {
						spec.Decomp = d
						if validSpec(&spec, mesh) {
							deck = append(deck, spec)
							break
						}
					}
				}
			}
			for _, ob := range serveObs {
				spec := serve.JobSpec{Kind: serve.KindAnalysis, Atoms: atoms, Steps: steps, Seed: sysSeed, Observable: ob}
				if validSpec(&spec, mesh) {
					deck = append(deck, spec)
				}
			}
		}
	}
	return deck
}

// validSpec applies the two checks the server applies — the spec's own
// validation at admission and, for a run, the decomposition's tiling of
// the box's cubic PME mesh at execution — and leaves the spec in the
// canonical form the server will see (defaults filled in).
func validSpec(spec *serve.JobSpec, mesh int) bool {
	if spec.Normalize() != nil {
		return false
	}
	if spec.Kind != serve.KindRun {
		return true
	}
	dk, err := pmd.ParseDecomp(spec.Decomp)
	if err != nil {
		return false
	}
	return pmd.ValidateDecomp(dk, spec.Procs, md.PMEConfig{K1: mesh, K2: mesh, K3: mesh, Order: 4}) == nil
}

// warmSpecs is the untimed warm-up block: one cheap job per system the
// lists draw from, so every solvated box is built before timing starts.
// The one-step specs are outside every deck (decks start at two steps),
// so they never collide with a timed job.
func warmSpecs(clients int, sz sizes) []serve.JobSpec {
	var specs []serve.JobSpec
	for c := 0; c < clients; c++ {
		for d := 0; d < sz.serveDecks; d++ {
			for _, atoms := range sz.serveAtoms {
				specs = append(specs, serve.JobSpec{
					Kind: serve.KindAnalysis, Atoms: atoms, Steps: 1, Seed: systemSeed(c, d, sz.serveDecks), Observable: "msd",
				})
			}
		}
	}
	return specs
}
