package main

// Example runs the quickstart end to end and holds it to the output the
// README's Quick start section shows: the numbers are virtual seconds and
// rounded energies of a deterministic run, so a line that moves means the
// documentation is stale.
func Example() {
	main()
	// Output:
	// workload: 3552 atoms in a 80×36×48 Å cell
	// step 1: potential 9237.9 kcal/mol (classic 7732.6, PME 1505.3)
	// step 2: potential 9806.6 kcal/mol (classic 8300.6, PME 1506.0)
	// step 3: potential 10136.8 kcal/mol (classic 8630.5, PME 1506.3)
	//
	// 8 processors, TCP/IP on Ethernet, 3 steps:
	//   classic: 0.280 s  (comp 0.116, comm 0.048, sync 0.117)
	//   PME:     1.446 s  (comp 0.158, comm 0.686, sync 0.602)
	//   parallel energies match the sequential run: step-1 total 12145.307 vs 12145.307
}
