package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var record = flag.Bool("record", false, "rewrite testdata/fig3_dense_100_digests.json from this commit")

// runTiny runs one workload at smoke size and decodes its result line.
func runTiny(t *testing.T, workload string, trace int, seed int64) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--tiny", "--root", "..", "--out", t.TempDir()}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not a result: %v", workload, trace, err)
	}
	return res
}

// TestTinyWorkloads runs every workload in both modes at smoke size and
// checks that every catalog metric is emitted with its unit, and that
// the run is correct with no failed operation (failed_frac 0).
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for trace, catalog := range [][]metricDef{endToEnd, perLayer} {
			res := runTiny(t, name, trace, 7)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s trace=%d: %d metrics, catalog has %d", name, trace, len(res.Metrics), len(catalog))
			}
			for _, m := range catalog {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
			}
			if trace == 0 {
				for name, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, name, v.Value)
					}
				}
			}
		}
	}
}

// TestTracedCountsRepeat pins the exact-count contract across separate
// traced runs at a fixed seed and worker count.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{
		"sim.events_per_round", "sim.migrated_per_round",
		"network.pushes_per_round", "network.deliveries_per_round", "network.dropped_per_round", "network.dup_frac",
		"ledger.resyncs_per_round", "ledger.desynced_per_round", "sortition.selects_per_round",
	}
	for _, name := range workloadNames() {
		a, b := runTiny(t, name, 1, 3), runTiny(t, name, 1, 3)
		for _, m := range exact {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s %v then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestBadInvocations covers argument errors: each must fail without
// printing a result.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "simd_grid", "--trace", "2"},
		{"--workload", "simd_grid", "--seconds", "0"},
		{"--workload", "simd_grid", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || stdout.Len() != 0 {
			t.Errorf("%q: err=%v stdout=%q", args, err, stdout.String())
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// catalog in step. BENCHMARK.json may leave a workload out (README.md
// says why fig3_sparse_50k is not in it) but may not name one the code
// lacks.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, the code has %v", w.Name, workloadNames())
		}
	}
	for _, c := range []struct {
		json    []struct{ Name, Unit string }
		catalog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.catalog) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(c.json), len(c.catalog))
			continue
		}
		for i, m := range c.catalog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, c.json[i], m)
			}
		}
	}
}

func TestTail(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	v, pct, n := s.tail()
	if v != 90 || pct != 89 || n != 100 {
		t.Errorf("tail of 1..100 ms = %v (p%v of %d), want 90 (p89 of 100): ten samples lie beyond it", v, pct, n)
	}
	var small sample
	small.add(3 * time.Millisecond)
	small.add(1 * time.Millisecond)
	if v, pct, _ := small.tail(); v != 1 || pct != 0 {
		t.Errorf("tail of a 2-sample = %v p%v, want the minimum at p0", v, pct)
	}
}

// digestSeeds are the seeds the recorded dense digests cover.
const digestSeeds = 13

// denseDigestRuns is the DefaultFig3Config sweep: eight runs per rate.
const denseDigestRuns = 48

// TestRecordDenseDigests checks the first dense runs of seed 1 against
// the recorded digests; with -record it regenerates the whole table.
func TestRecordDenseDigests(t *testing.T) {
	seeds, runs := []int64{1}, 2
	if *record {
		seeds, runs = nil, denseDigestRuns
		for s := int64(0); s < digestSeeds; s++ {
			seeds = append(seeds, s)
		}
	}
	table, err := loadDenseDigests()
	if err != nil && !*record {
		t.Fatal(err)
	}
	if table == nil {
		table = make(map[string][]string)
	}
	for _, seed := range seeds {
		spec := denseSpec(options{seed: seed, workers: 2})
		outs, _, err := sweepRuns(spec, runs, time.Time{}, runPlan{rounds: spec.roundsPerRun}, false)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, o := range outs {
			if o.err != nil {
				t.Fatal(o.err)
			}
			got = append(got, runDigest(o))
		}
		key := strconv.FormatInt(seed, 10)
		if *record {
			table[key] = got
			continue
		}
		want := table[key]
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("seed %d run %d: digest %s, recorded %v", seed, i, got[i], want)
			}
		}
	}
	if *record {
		blob, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "fig3_dense_100_digests.json"), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
