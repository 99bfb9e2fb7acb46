package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/circuit"
	"logicregression/internal/opt"
	"logicregression/internal/oracle"
)

// TestLearnGoldenNetlists pins the learned circuits of five Table II cases
// at the learn benchmark's budget (learnbench seed 3, so learner seed 4):
// the sha256 of the written netlist and the query count. The goldens were
// recorded before the simulation kernel and the one-batch PatternSampling
// sweep replaced the per-input batches, so a speed change to either that
// alters a circuit or a query count fails here. case_18 covers truncated
// FBDT growth; the others cover templates, exhaustive trees and SOPs.
func TestLearnGoldenNetlists(t *testing.T) {
	golden := []struct {
		name    string
		sha     string
		queries int64
	}{
		{"case_4", "88562b9d80a214ca19b47bbe12b5f7d33e772a596ae64e4f98d06f02d724e607", 514048},
		{"case_7", "fe9cded3d10cd763d4af2db06573fb1f6b2734fcff28e039c4f755e2552756d0", 462506},
		{"case_10", "cb385a5427385d3e30f41f05a388ee0f17bcce1cb7bde8d05a3edd7378783435", 113952},
		{"case_13", "e6f908917287a7c7734875a1d55d146b483419b7e296964da12e7647acdd7b4f", 462436},
		{"case_18", "f1fb1511af237c8b963db05f96efa91792076fc9ee18343aa681bfbf3b61cf95", 2939776},
	}
	opts := Options{
		Seed:                4,
		SupportR:            768,
		MaxTreeNodes:        600,
		TreeR:               60,
		ExhaustiveThreshold: 18,
		Opt: opt.Config{
			TimeLimit:      24 * time.Hour,
			MaxFraigNodes:  20000,
			RefactorBudget: 50000,
		},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			c, err := cases.ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			res := Learn(oracle.FromCircuit(c.Circuit), opts)
			var buf bytes.Buffer
			if err := circuit.WriteNetlist(&buf, res.Circuit); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.sha || res.Queries != g.queries {
				t.Fatalf("learned %s: sha256 %s, %d queries; golden %s, %d queries",
					g.name, got, res.Queries, g.sha, g.queries)
			}
		})
	}
}
