package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSeedDeterminesInputs checks that a seed alone fixes every generated
// input: the service job sequence of each round and the tables order, with
// a different seed giving a different sequence.
func TestSeedDeterminesInputs(t *testing.T) {
	pool := len(specPool())
	for r := 0; r < 3; r++ {
		a, b := roundSequence(7, r, pool), roundSequence(7, r, pool)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: seed 7 gave two different sequences", r)
		}
		if reflect.DeepEqual(a, roundSequence(8, r, pool)) {
			t.Errorf("round %d: seeds 7 and 8 gave the same sequence", r)
		}
	}
	e := env{root: "..", seed: 7}
	x, err := setupTables(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	y, err := setupTables(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Error("seed 7 gave two different tables set-ups")
	}
}

// TestRoundMix checks the composition of every round: the distinct jobs
// split between instance 0 and all regions as specified, each repeat
// follows an earlier job with the same spec, and no fresh spec occurs
// twice.
func TestRoundMix(t *testing.T) {
	pool := specPool()
	for r := 0; r < 20; r++ {
		seq := roundSequence(int64(r), r, len(pool))
		if len(seq) != roundFresh+roundRepeats {
			t.Fatalf("round %d has %d jobs", r, len(seq))
		}
		seen := map[int]bool{}
		all := 0
		for i, j := range seq {
			if j.repeat {
				if !seen[j.spec] {
					t.Fatalf("round %d job %d repeats a spec not seen before", r, i)
				}
				continue
			}
			if seen[j.spec] {
				t.Fatalf("round %d job %d: fresh spec %d occurs twice", r, i, j.spec)
			}
			seen[j.spec] = true
			if pool[j.spec].instance < 0 {
				all++
			}
		}
		if all != roundAll {
			t.Errorf("round %d: %d all-regions jobs, want %d", r, all, roundAll)
		}
	}
}

// TestCorruptGoldenFails checks that a table differing from its golden file
// fails the pass.
func TestCorruptGoldenFails(t *testing.T) {
	g, err := os.ReadFile(goldenPath("..", 2))
	if err != nil {
		t.Fatal(err)
	}
	b := &tablesBench{order: []int{2}, golden: map[int]string{2: string(g)}, events: map[int]int64{2: 1}}
	if p := b.pass(context.Background()); len(p.mismatches) != 0 || p.failed != 0 {
		t.Fatalf("pristine golden: %v", p.mismatches)
	}
	b.golden[2] = strings.Replace(string(g), "concur=", "concur=1", 1)
	p := b.pass(context.Background())
	if len(p.mismatches) != 1 || p.failed != 1 || len(p.latencies) != 0 {
		t.Fatalf("corrupted golden: mismatches %v, failed %d", p.mismatches, p.failed)
	}
}

// TestCorruptReplayReferenceFails checks that the replay pass fails when
// its reference disagrees on the bytes, the event total or the region
// count.
func TestCorruptReplayReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("records a trace")
	}
	bb, err := setupReplay(context.Background(), env{root: "..", scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*replayBench)
	defer b.close()
	if p := b.pass(context.Background()); len(p.mismatches) != 0 {
		t.Fatalf("pristine reference: %v", p.mismatches)
	}
	for name, corrupt := range map[string]func(r *replayBench){
		"bytes":   func(r *replayBench) { r.refJSON = append([]byte(nil), r.refJSON...); r.refJSON[len(r.refJSON)/2] ^= 1 },
		"events":  func(r *replayBench) { r.refEvents++ },
		"regions": func(r *replayBench) { r.refRegions-- },
	} {
		r := *b
		corrupt(&r)
		if p := r.pass(context.Background()); len(p.mismatches) != 1 || p.failed != 1 {
			t.Errorf("corrupted %s: mismatches %v", name, p.mismatches)
		}
	}
}

// TestCorruptServiceReferenceFails checks that a report body differing from
// its reference counts as a failed job and a mismatch, while the round
// still runs to its end.
func TestCorruptServiceReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	bb, err := setupService(context.Background(), env{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*serviceBench)
	seq := roundSequence(b.seed, 0, len(b.specs))
	victim := seq[0].spec
	b.specs[victim].ref = append([]byte(nil), b.specs[victim].ref...)
	b.specs[victim].ref[0] = ' '
	p := b.pass(context.Background())
	want := 0
	for _, j := range seq {
		if j.spec == victim {
			want++
		}
	}
	if p.attempted != len(seq) || p.failed != want || len(p.mismatches) != want {
		t.Fatalf("attempted %d failed %d mismatches %d, want %d/%d/%d",
			p.attempted, p.failed, len(p.mismatches), len(seq), want, want)
	}
}

// TestBenchmarkFileNamesMetrics checks that BENCHMARK.json declares exactly
// the metrics the two modes print.
func TestBenchmarkFileNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	var wls []string
	for _, w := range workloads {
		wls = append(wls, w.name)
	}
	sort.Strings(wls)
	if got := names(doc.Workloads); !reflect.DeepEqual(got, wls) {
		t.Errorf("workloads %v, the benchmark runs %v", got, wls)
	}
	if got := names(doc.EndToEnd); !reflect.DeepEqual(got, endToEndNames()) {
		t.Errorf("end_to_end %v, the untraced run prints %v", got, endToEndNames())
	}
	if got := names(doc.PerLayer); !reflect.DeepEqual(got, knownLayers()) {
		t.Errorf("per_layer %v, the traced run prints %v", got, knownLayers())
	}
}

// endToEndNames is the sorted list of end-to-end metric names.
func endToEndNames() []string {
	names := make([]string, 0, len(endToEndUnits))
	for n := range endToEndUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// knownLayers is the sorted list of per-layer metric names, including the
// tracing overhead the traced run adds.
func knownLayers() []string {
	names := []string{"tracing.overhead_ms", "tracing.overhead_pct"}
	for _, lm := range layerTable {
		names = append(names, lm.name)
	}
	sort.Strings(names)
	return names
}
