package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/exp"
)

// goldenPath pins the outcomes of 13 problems for every model and
// language; the sweep and service workloads check against it.
const goldenPath = "internal/exp/testdata/seed_golden.json"

// cellID names one evaluation cell with the default configuration.
type cellID struct{ problem, model, lang string }

func (c cellID) String() string { return c.problem + "/" + c.model + "/" + c.lang }

var languages = []edatool.Language{edatool.Verilog, edatool.VHDL}

// golden maps each pinned cell to its expected outcome as a JSON value.
type golden map[cellID]any

func loadGolden() (golden, []string, error) {
	data, err := repoFile(goldenPath)
	if err != nil {
		return nil, nil, err
	}
	var cells []struct {
		Model    string            `json:"model"`
		Language string            `json:"language"`
		Outcomes []json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	g := golden{}
	var ids []string
	for i, c := range cells {
		for _, raw := range c.Outcomes {
			var v struct {
				ID string `json:"id"`
			}
			var val any
			if json.Unmarshal(raw, &v) != nil || json.Unmarshal(raw, &val) != nil {
				return nil, nil, fmt.Errorf("%s: malformed outcome", goldenPath)
			}
			if i == 0 {
				ids = append(ids, v.ID)
			}
			g[cellID{v.ID, c.Model, c.Language}] = val
		}
	}
	return g, ids, nil
}

// jsonValue renders an outcome as the generic JSON value it persists
// as, so outcomes compare field by field like the golden file.
func jsonValue(o exp.ProblemOutcome) any {
	data, err := json.Marshal(o)
	if err != nil {
		panic(err) // a plain struct of scalars always marshals
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		panic(err)
	}
	return v
}

// check compares an outcome against the golden pin, if the cell has one.
func (g golden) check(c cellID, o exp.ProblemOutcome) error {
	want, ok := g[c]
	if !ok {
		return nil
	}
	if got := jsonValue(o); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cell %s differs from %s: got %v, want %v", c, goldenPath, got, want)
	}
	return nil
}

// pickProblems returns the golden problems plus extra problems drawn
// by rng from the rest, in suite order.
//
// A cell's cost grows with the square of its reference testbench size
// (the lexers are quadratic), and those sizes span 15 KB to 150 KB, so a
// plain random draw would move a sweep's figures by more than their
// bounds from seed to seed. The draw is therefore stratified by that
// size: the certainLargest testbenches are always drawn, and the rest,
// ordered by size, is cut into equal strata with one problem drawn from
// each. Every seed then samples the same cost profile.
func pickProblems(suite *bench.Suite, goldenIDs []string, extra int, rng *rand.Rand) ([]*bench.Problem, error) {
	chosen := map[string]bool{}
	for _, id := range goldenIDs {
		if suite.ByID(id) == nil {
			return nil, fmt.Errorf("golden problem %q is not in the suite", id)
		}
		chosen[id] = true
	}
	var rest []*bench.Problem
	for _, p := range suite.Problems {
		if !chosen[p.ID] {
			rest = append(rest, p)
		}
	}
	if extra > len(rest) || certainLargest > extra {
		return nil, fmt.Errorf("cannot draw %d of %d non-golden problems", extra, len(rest))
	}
	sort.SliceStable(rest, func(i, j int) bool { return refTBSize(rest[i]) > refTBSize(rest[j]) })
	for _, p := range rest[:certainLargest] {
		chosen[p.ID] = true
	}
	rest, n := rest[certainLargest:], extra-certainLargest
	for k := 0; k < n; k++ {
		lo, hi := k*len(rest)/n, (k+1)*len(rest)/n
		chosen[rest[lo+rng.Intn(hi-lo)].ID] = true
	}
	var out []*bench.Problem
	for _, p := range suite.Problems {
		if chosen[p.ID] {
			out = append(out, p)
		}
	}
	return out, nil
}

// certainLargest is how many of the largest non-golden problems every
// draw includes. The largest testbenches cost several seconds a cell;
// drawing them by chance would make that cost the seed's main effect,
// and four of them also keep the sweep's 95th percentile inside the
// cluster of their cells rather than at its edge.
const certainLargest = 4

func refTBSize(p *bench.Problem) int { return len(p.RefTBVerilog) + len(p.RefTBVHDL) }

// scratchDir makes a fresh directory for a run's caches inside the
// checkout's build directory.
func scratchDir(workload string) (string, error) {
	root, err := filepath.Abs(".bench_build/tmp")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, workload+"-")
}

func workers() int { return runtime.NumCPU() }

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
