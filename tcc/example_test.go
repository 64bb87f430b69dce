package tcc_test

import (
	"fmt"

	"scalabletcc/tcc"
)

// Example runs the smallest possible experiment: one application on a
// four-processor machine, with the serializability oracle enabled.
func Example() {
	cfg := tcc.DefaultConfig(4)
	cfg.CollectCommitLog = true
	prof := tcc.MustProfile("water-spatial").Scale(0.02)

	res, err := tcc.Run(cfg, prof.Build(cfg.Procs, cfg.Seed))
	if err != nil {
		panic(err)
	}
	fmt.Println("committed:", res.Commits > 0)
	fmt.Println("serializable:", len(tcc.Verify(res)) == 0)
	// Output:
	// committed: true
	// serializable: true
}

// ExampleRunProtocol_baseline compares the scalable design against the
// original bus-based TCC on the same workload.
func ExampleRunProtocol_baseline() {
	prof := tcc.MustProfile("commitbound").Scale(0.02)

	scal, err := tcc.Run(tcc.DefaultConfig(8), prof.Build(8, 1))
	if err != nil {
		panic(err)
	}
	bus, err := tcc.RunProtocol("baseline", tcc.DefaultConfig(8), prof.Build(8, 1))
	if err != nil {
		panic(err)
	}
	fmt.Println("both finished:", scal.Commits == bus.Summary.Commits)
	// Output:
	// both finished: true
}
