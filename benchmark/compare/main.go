// Command compare holds two result sets of the host-clock benchmark
// against each other. Each set is a file of result records, one per
// invocation (hostbench --out appends them). It prints one row per
// workload × end-to-end metric — both medians with their quartiles, the
// ratio with its base, and a verdict by the metric's bound in
// BENCHMARK.json:
//
//	ok          the new median is no worse than the base by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the run-to-run spread exceeds the bound and the sets overlap
//
// It exits 0 only if every row is ok and no workload's failed share rose,
// and refuses a set that holds a run the wall cap cut short. Run it from
// the repository root, where BENCHMARK.json is:
//
//	go run ./benchmark/compare base.jsonl new.jsonl
package main

import (
	"fmt"
	"io"
	"os"

	"repro/benchmark/bstat"
)

func main() {
	os.Exit(run("BENCHMARK.json", os.Args[1:], os.Stdout, os.Stderr))
}

func run(manifest string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: compare base.jsonl new.jsonl")
		return 2
	}
	cmp, err := compare(manifest, args[0], args[1])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	cmp.WriteTable(stdout)
	if !cmp.Pass() {
		return 1
	}
	return 0
}

func compare(manifest, basePath, newPath string) (bstat.Comparison, error) {
	m, err := bstat.LoadManifest(manifest)
	if err != nil {
		return bstat.Comparison{}, err
	}
	base, err := bstat.ReadSet(basePath)
	if err != nil {
		return bstat.Comparison{}, err
	}
	cur, err := bstat.ReadSet(newPath)
	if err != nil {
		return bstat.Comparison{}, err
	}
	return bstat.Compare(m, base, cur)
}
