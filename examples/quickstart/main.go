// Quickstart: learn a circuit for a hidden Boolean function exposed only as
// a black box, then check the learned circuit's accuracy and print its
// netlist.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"logicregression"
)

func main() {
	// The "unknown system": a 6-input voter with an enable — visible to
	// the learner only through its answers to queries and its port names.
	inputs := []string{"en", "va", "vb", "vc", "vd", "ve"}
	hidden := logicregression.NewFuncOracle(inputs, []string{"pass"}, func(in []bool) []bool {
		votes := 0
		for _, v := range in[1:] {
			if v {
				votes++
			}
		}
		return []bool{in[0] && votes >= 3}
	})

	res := logicregression.Learn(hidden, logicregression.Options{Seed: 42})
	fmt.Printf("learned circuit: %d two-input gates, %d black-box queries\n",
		res.Size, res.Queries)
	for _, o := range res.Outputs {
		fmt.Printf("  output %q via %s (support %d, %d cubes)\n",
			o.Name, o.Method, o.Support, o.Cubes)
	}

	rep := logicregression.Accuracy(hidden,
		logicregression.NewCircuitOracle(res.Circuit),
		logicregression.EvalConfig{Patterns: 60000, Seed: 7})
	fmt.Printf("accuracy: %.4f%% over %d hidden test patterns\n", rep.Accuracy*100, rep.Patterns)

	fmt.Println("\nnetlist:")
	if err := logicregression.WriteNetlist(os.Stdout, res.Circuit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
