package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
)

// denseDigestsFile holds, per seed, the digest of every run of the
// DefaultFig3Config sweep (run sequence indices 0..47, i.e. eight runs
// per defection rate), recorded at the commit that introduced the
// benchmark. Regenerate with `go test -run TestRecordDenseDigests
// -record` only when a change to the dense outcome stream is intended.
//
//go:embed testdata/fig3_dense_100_digests.json
var denseDigestsFile []byte

// sparseBand is the accepted range of a fig3_sparse_50k run's mean
// final fraction and decided-round fraction over all its rounds. The
// references are those of the commit that introduced the benchmark
// (the 5% and 10% panels decide every round, with about 90% and 70% of
// nodes final); the band is wide because a run simulates a dozen rounds
// and a round's final fraction is nearly all-or-nothing.
var sparseBand = struct {
	finalRef, finalTol     float64
	decidedRef, decidedTol float64
}{finalRef: 0.8, finalTol: 0.3, decidedRef: 1, decidedTol: 0.25}

// runDigest hashes a run's per-round outcome counts.
func runDigest(o *runOut) string {
	h := fnv.New64a()
	for _, r := range o.outcomes {
		fmt.Fprintf(h, "%d,%d,%d,%d,%t;", r.final, r.tentative, r.none, r.population, r.decided)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func loadDenseDigests() (map[string][]string, error) {
	var table map[string][]string
	if err := json.Unmarshal(denseDigestsFile, &table); err != nil {
		return nil, fmt.Errorf("reading dense digests: %w", err)
	}
	return table, nil
}

// checkRuns applies the output checks to finished runs. Every round is
// one attempted operation; a round fails when its run errored, its
// counts break an invariant, or (dense) its run misses its digest.
func checkRuns(spec fig3Spec, outs []*runOut, rep *report, log io.Writer) {
	var digests []string
	if spec.dense && !isTinyDense(spec) {
		table, err := loadDenseDigests()
		if err != nil {
			rep.fail(1, "%v", err)
		}
		digests = table[strconv.FormatInt(spec.cfg.Seed, 10)]
	}
	var finalSum float64
	decided, rounds := 0, 0
	for _, o := range outs {
		rep.attempted += len(o.outcomes)
		rounds += len(o.outcomes)
		if o.err != nil {
			rep.fail(len(o.outcomes), "run %d: %v", o.key.index, o.err)
			continue
		}
		if len(o.outcomes) != spec.roundsPerRun {
			rep.fail(len(o.outcomes), "run %d: %d rounds, want %d", o.key.index, len(o.outcomes), spec.roundsPerRun)
			continue
		}
		for i, r := range o.outcomes {
			finalSum += r.finalFrac
			if r.decided {
				decided++
			}
			if r.final+r.tentative+r.none != r.population || r.population != spec.cfg.Nodes {
				rep.fail(1, "run %d round %d: counts %d+%d+%d do not partition %d nodes",
					o.key.index, i, r.final, r.tentative, r.none, spec.cfg.Nodes)
			}
			for _, f := range []float64{r.finalFrac, r.tentFrac, r.noneFrac} {
				if !(f >= 0 && f <= 1) {
					rep.fail(1, "run %d round %d: fraction %v outside [0,1]", o.key.index, i, f)
					break
				}
			}
		}
		if o.key.index < len(digests) {
			if got := runDigest(o); got != digests[o.key.index] {
				rep.fail(len(o.outcomes), "run %d: outcome digest %s, reference %s", o.key.index, got, digests[o.key.index])
			}
		}
	}
	if !spec.dense && rounds > 0 {
		b := sparseBand
		meanFinal := finalSum / float64(rounds)
		decidedFrac := float64(decided) / float64(rounds)
		fmt.Fprintf(log, "mean final fraction %.3f, decided fraction %.3f over %d rounds\n", meanFinal, decidedFrac, rounds)
		if diff := meanFinal - b.finalRef; diff < -b.finalTol || diff > b.finalTol {
			rep.fail(rounds, "mean final fraction %.3f outside %.2f±%.2f", meanFinal, b.finalRef, b.finalTol)
		}
		if diff := decidedFrac - b.decidedRef; diff < -b.decidedTol || diff > b.decidedTol {
			rep.fail(rounds, "decided fraction %.3f outside %.2f±%.2f", decidedFrac, b.decidedRef, b.decidedTol)
		}
	}
}

// isTinyDense reports a shrunken dense spec, which the recorded digests
// do not cover.
func isTinyDense(spec fig3Spec) bool {
	full := experiments.DefaultFig3Config()
	return spec.cfg.Nodes != full.Nodes || spec.roundsPerRun != full.Rounds
}

// checkGolden runs the configuration of internal/experiments' fig3
// golden test (DefaultFig3Config with 3 runs, 4 rounds, 5% and 15%
// defection) through the benchmark's own run code and compares the
// trimmed-mean table with testdata/fig3.golden.json byte for byte. It
// counts as one attempted operation.
func checkGolden(opt options, spec fig3Spec, rep *report) error {
	want, err := os.ReadFile(filepath.Join(opt.root, "internal", "experiments", "testdata", "fig3.golden.json"))
	if err != nil {
		return fmt.Errorf("golden check: %w", err)
	}
	cfg := experiments.DefaultFig3Config()
	cfg.Runs, cfg.Rounds = 3, 4
	cfg.DefectionRates = []float64{0.05, 0.15}
	golden := fig3Spec{cfg: cfg, roundsPerRun: cfg.Rounds}
	arena := protocol.NewArena()
	res := &experiments.Fig3Result{Config: cfg}
	rep.attempted++
	for rateIdx, rate := range cfg.DefectionRates {
		var final, tent, none [][]float64
		for run := 0; run < cfg.Runs; run++ {
			o := runFig3Run(golden, runKey{rateIdx: rateIdx, run: run}, arena, runPlan{rounds: cfg.Rounds})
			if o.err != nil {
				return fmt.Errorf("golden check: %w", o.err)
			}
			var f, t, n []float64
			for _, r := range o.outcomes {
				f, t, n = append(f, r.finalFrac), append(t, r.tentFrac), append(n, r.noneFrac)
			}
			final, tent, none = append(final, f), append(tent, t), append(none, n)
		}
		series := experiments.Fig3Series{Rate: rate}
		for _, col := range []struct {
			dst  *[]float64
			rows [][]float64
		}{{&series.Final, final}, {&series.Tentative, tent}, {&series.None, none}} {
			if *col.dst, err = runpool.TrimmedMeanColumns(col.rows, cfg.TrimFrac); err != nil {
				return fmt.Errorf("golden check: %w", err)
			}
		}
		res.Series = append(res.Series, series)
	}
	got, err := json.MarshalIndent(res.Table().Columns, "", "  ")
	if err != nil {
		return fmt.Errorf("golden check: %w", err)
	}
	if string(append(got, '\n')) != string(want) {
		rep.fail(1, "fig3 golden: the benchmark's run code no longer reproduces testdata/fig3.golden.json")
	}
	return nil
}
