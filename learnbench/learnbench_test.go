package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/oracle"
)

// tableIIOurs reads the "ours size / acc%" column of Table II from
// EXPERIMENTS.md: case name -> (gates, accuracy as printed).
func tableIIOurs(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells := func(line string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range parts {
			parts[i] = strings.Trim(strings.TrimSpace(parts[i]), "*")
		}
		return parts
	}
	out := map[string][2]string{}
	inTable, col := false, -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## E1 "):
			inTable = true
		case strings.HasPrefix(line, "#"):
			inTable = false
		case !inTable || !strings.HasPrefix(line, "|"):
		case col < 0:
			for i, h := range cells(line) {
				if h == "ours size / acc%" {
					col = i
				}
			}
		default:
			row := cells(line)
			if col >= len(row) || !strings.HasPrefix(row[0], "case_") {
				continue
			}
			size, acc, ok := strings.Cut(row[col], " / ")
			if !ok {
				t.Fatalf("EXPERIMENTS.md %s: cannot read %q", row[0], row[col])
			}
			out[row[0]] = [2]string{size, acc}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("read %d Table II rows from EXPERIMENTS.md, want 20", len(out))
	}
	return out
}

// TestTableII learns every Table II case at the default seed with the
// benchmark's budget, through the traced path. Gates and accuracy must equal
// EXPERIMENTS.md's "ours" column, and the stage replay must reproduce each
// learn.
func TestTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("learns all 20 cases twice")
	}
	want := tableIIOurs(t)
	b := newBudget(0)
	opts := b.options()
	for _, c := range cases.All() {
		s := subject{name: c.Name, golden: oracle.FromCircuit(c.Circuit)}
		tr := &tracer{t0: time.Now(), cas: c.Name}
		res, err := tracedLearn(tr, s, opts)
		cr := caseResult{Name: c.Name}
		if err := checkLearn(&cr, s, res, err, b); err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		got := [2]string{strconv.Itoa(cr.Gates), strconv.FormatFloat(cr.Accuracy, 'f', 3, 64)}
		if got != want[c.Name] {
			t.Errorf("%s: gates / accuracy %s / %s, Table II has %s / %s",
				c.Name, got[0], got[1], want[c.Name][0], want[c.Name][1])
		}
		if why := replay(tr, s, opts).divergence(res); why != "" {
			t.Errorf("%s: replay diverged: %s", c.Name, why)
		}
	}
}
