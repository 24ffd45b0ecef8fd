package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// fig3Spec sizes one Fig. 3 workload. Its unit of work — its "job" — is
// one fig3 run: a defection rate's population, runner and rounds, built
// exactly as experiments.RunFig3 builds it. The first round of a run is
// its warm-up round and counts as set-up.
type fig3Spec struct {
	name string
	cfg  experiments.Fig3Config
	// roundsPerRun counts every round of a run, warm-up included.
	roundsPerRun int
	workers      int
	// traceRuns is the fixed run count of each traced pass.
	traceRuns int
	// dense runs get the bit-exact checks; sparse runs the invariant
	// and band checks.
	dense bool
}

// denseSpec is the paper's own experiment: DefaultFig3Config (100 nodes,
// 30 rounds per run, U{1..50} stakes, fanout 5, defection 5..30%) on the
// dense path, with the benchmark's seed as the sweep seed.
func denseSpec(opt options) fig3Spec {
	cfg := experiments.DefaultFig3Config()
	cfg.Seed = opt.seed
	s := fig3Spec{name: "fig3_dense_100", cfg: cfg, roundsPerRun: cfg.Rounds,
		workers: opt.workers, traceRuns: 12, dense: true}
	if opt.tiny {
		s.cfg.Nodes = 40
		s.roundsPerRun = 4
		s.traceRuns = 4
	}
	return s
}

// sparseSpec is LargeFig3Config(50000) (absolute taus 200/300, so the
// sparse path engages) with each run cut to a warm-up round plus three
// timed rounds, so that several runs — and set-ups — fit one benchmark
// run. One worker: a 50k sparse runner holds over a gigabyte.
//
// A dozen rounds per run is too few to average out how much a 50k round
// costs, so two sources of that cost's spread are fixed: the 5%
// weak-synchrony draw is off (AsyncProb 0; a degraded round costs three
// to four normal ones), and the runs cover the sweep's 5% and 10% panels,
// where rounds decide normally (from 15% on, collapsing rounds cost from
// half to one and a half normal ones). The dense workload keeps both;
// its thousand rounds per run average them out.
func sparseSpec(opt options) fig3Spec {
	cfg := experiments.LargeFig3Config(50_000)
	cfg.Seed = opt.seed
	cfg.Params.AsyncProb = 0
	cfg.DefectionRates = cfg.DefectionRates[:2]
	s := fig3Spec{name: "fig3_sparse_50k", cfg: cfg, roundsPerRun: 4, workers: 1, traceRuns: 2}
	if opt.tiny {
		s.cfg.Nodes = 4096
		s.cfg.Params.TauStep = 60
		s.cfg.Params.TauFinal = 70
		s.roundsPerRun = 3
	}
	return s
}

// runKey identifies one fig3 run of the sweep.
type runKey struct {
	index   int // position in the benchmark's run sequence
	rateIdx int
	run     int // run number within the rate, as in RunFig3
}

// runKeyAt maps the benchmark's run sequence onto the sweep: rates are
// visited in the order 5, 15, 25, 10, 20, 30% so that any prefix spreads
// over the whole defection range, and each pass over the rates takes the
// next run number.
func runKeyAt(cfg experiments.Fig3Config, i int) runKey {
	n := len(cfg.DefectionRates)
	var order []int
	for r := 0; r < n; r += 2 {
		order = append(order, r)
	}
	for r := 1; r < n; r += 2 {
		order = append(order, r)
	}
	return runKey{index: i, rateIdx: order[i%n], run: i / n}
}

// fig3RunSeed mirrors experiments' per-run seeding.
func fig3RunSeed(cfg experiments.Fig3Config, rate float64, run int) int64 {
	return cfg.Seed + int64(run)*7919 + int64(rate*1e4)
}

// roundOutcome is one round's report as the checks see it.
type roundOutcome struct {
	final, tentative, none, population int
	finalFrac, tentFrac, noneFrac      float64
	decided                            bool
}

// countVec is the deterministic per-round work a traced run reads from
// the obs registry and the network, cumulative over the run.
type countVec struct {
	events, scheduled, resyncs, desynced, selects uint64
	sent, delivered, duplicate, dropped           uint64
}

// runOut is one completed fig3 run.
type runOut struct {
	key  runKey
	rate float64
	seed int64
	err  error

	start, firstRow, end    time.Time
	popDur, newDur, warmDur time.Duration
	roundWalls              []time.Duration // rounds after the warm-up
	outcomes                []roundOutcome
	// wire is the run's rows encoded as one cell of the experiments wire
	// stream, the form RunFig3 streams them to its sink in.
	wire []byte
	// slices are the times of the cached requests that served the run
	// (see serveSlice).
	slices []time.Duration
	// serving is the time this run's worker spent serving an earlier
	// run while it ran this one; the run's job time leaves it out.
	serving time.Duration
	net     network.Stats

	// Traced runs only.
	metrics *obs.SimMetrics
	counts  []countVec
}

// runPlan says how to execute a run.
type runPlan struct {
	rounds int
	traced bool
	rec    *recorder
	parent int64
	// served is the worker's previous run, served from the cache after
	// each of this run's rounds (see serveSlice).
	served *runOut
}

// hookClock stamps the protocol.Hooks round and step boundaries; the
// hooks only read the wall clock.
type hookClock struct {
	roundStart, lastStep time.Time
}

func (h *hookClock) hooks() protocol.Hooks {
	return protocol.Hooks{
		RoundStart: func(uint64) { h.roundStart = time.Now() },
		StepDone:   func(uint64, uint64, []int) { h.lastStep = time.Now() },
	}
}

var outcomeColumns = []string{"final", "tentative", "none"}

// runFig3Run executes one fig3 run with the sweep's population sampling,
// defector choice and runner configuration.
func runFig3Run(spec fig3Spec, key runKey, arena *protocol.Arena, plan runPlan) *runOut {
	cfg := spec.cfg
	rate := cfg.DefectionRates[key.rateIdx]
	out := &runOut{key: key, rate: rate, seed: fig3RunSeed(cfg, rate, key.run)}
	out.start = time.Now()
	runSpan := plan.rec.reserve(plan.parent, "run")
	defer func() { plan.rec.close(runSpan, out.start, out.end) }()

	rng := sim.NewRNG(out.seed, "fig3.setup")
	pop, err := stake.SamplePopulation(cfg.StakeDist, cfg.Nodes, rng)
	if err != nil {
		out.err, out.end = err, time.Now()
		return out
	}
	behaviors := arena.BehaviorBuf(cfg.Nodes)
	for _, idx := range rng.Perm(cfg.Nodes)[:int(rate*float64(cfg.Nodes))] {
		behaviors[idx] = protocol.Selfish
	}
	tPop := time.Now()
	pcfg := protocol.Config{
		Params:        cfg.Params,
		Stakes:        pop.Stakes,
		Behaviors:     behaviors,
		Fanout:        cfg.Fanout,
		Seed:          out.seed,
		Arena:         arena,
		WeightBackend: cfg.WeightBackend,
		Sparse:        cfg.Sparse,
	}
	if plan.traced {
		out.metrics = obs.NewSimMetrics(obs.NewRegistry())
		pcfg.Metrics = out.metrics
	}
	runner, err := protocol.NewRunner(pcfg)
	if err != nil {
		out.err, out.end = err, time.Now()
		return out
	}
	tNew := time.Now()
	out.popDur, out.newDur = tPop.Sub(out.start), tNew.Sub(tPop)
	plan.rec.add(runSpan, "population", out.start, tPop)
	plan.rec.add(runSpan, "new_runner", tPop, tNew)

	var clock hookClock
	if plan.traced {
		runner.SetHooks(clock.hooks())
	}
	for i := 0; i < plan.rounds; i++ {
		t0 := time.Now()
		clock = hookClock{roundStart: t0, lastStep: t0}
		rep := runner.RunRounds(1)[0]
		t1 := time.Now()
		if s := plan.served; s != nil && s.err == nil {
			s.err = serveSlice(s)
			out.serving += time.Since(t1)
		}
		if i == 0 {
			out.warmDur, out.firstRow = t1.Sub(t0), t1
		} else {
			out.roundWalls = append(out.roundWalls, t1.Sub(t0))
		}
		out.outcomes = append(out.outcomes, roundOutcome{
			final: rep.FinalCount, tentative: rep.TentativeCount, none: rep.NoneCount,
			population: rep.Population,
			finalFrac:  rep.FinalFrac(), tentFrac: rep.TentativeFrac(), noneFrac: rep.NoneFrac(),
			decided: rep.Decided,
		})
		if plan.traced {
			steps := clock.lastStep
			if steps.Before(clock.roundStart) {
				steps = clock.roundStart
			}
			round := plan.rec.reserve(runSpan, "round")
			plan.rec.add(round, "preamble", t0, clock.roundStart)
			plan.rec.add(round, "steps", clock.roundStart, steps)
			plan.rec.add(round, "finalize", steps, t1)
			plan.rec.close(round, t0, t1)
			out.counts = append(out.counts, snapshotCounts(out.metrics, runner.Network()))
		}
	}
	if n := runner.Network(); n != nil {
		out.net = n.Stats()
	}

	out.wire, out.err = encodeRun(out)
	out.end = time.Now()
	return out
}

func snapshotCounts(m *obs.SimMetrics, net *network.Network) countVec {
	c := countVec{
		events:    m.EventsExecuted.Value(),
		scheduled: m.EventsScheduled.Value(),
		resyncs:   m.Resyncs.Value(),
		desynced:  m.DesyncedNodes.Value(),
		selects:   m.SortitionHits.Value() + m.SortitionMisses.Value(),
	}
	if net != nil {
		s := net.Stats()
		c.sent, c.delivered, c.duplicate = s.Sent, s.Delivered, s.Duplicate
		c.dropped = s.DroppedOffline + s.DroppedLoss + s.DroppedFault
	}
	return c
}

// sweepRuns runs the sweep's runs from index 0 up across the spec's
// workers through runpool.SweepWithState, each worker holding a
// protocol.Arena as RunFig3's workers do. With a non-zero deadline it
// starts runs until the deadline passes (limit bounds the sequence);
// otherwise it runs exactly limit runs. It also returns the workers'
// arenas. With serve set, each run serves its worker's previous run from
// the cache (see serveSlice).
func sweepRuns(spec fig3Spec, limit int, deadline time.Time, plan runPlan, serve bool) ([]*runOut, []*protocol.Arena, error) {
	type worker struct {
		arena *protocol.Arena
		last  *runOut
	}
	arenas := make([]*protocol.Arena, spec.workers)
	outs, err := runpool.SweepWithState(limit, spec.workers,
		func(w int) *worker {
			arenas[w] = protocol.NewArena()
			return &worker{arena: arenas[w]}
		},
		func(i int, w *worker) (*runOut, error) {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil, nil
			}
			p := plan
			if serve && w.last != nil && w.last.err == nil {
				p.served = w.last
			}
			w.last = runFig3Run(spec, runKeyAt(spec.cfg, i), w.arena, p)
			return w.last, nil
		})
	if err != nil {
		return nil, nil, err
	}
	done := outs[:0]
	for _, o := range outs {
		if o != nil {
			done = append(done, o)
		}
	}
	return done, arenas, nil
}

// runFig3 is the entry point of both fig3 workloads.
func runFig3(opt options, spec fig3Spec) (*report, error) {
	rep := newReport()
	if spec.dense {
		if err := checkGolden(opt, spec, rep); err != nil {
			return nil, err
		}
	}
	if opt.trace {
		return rep, tracedFig3(opt, spec, rep)
	}
	runtime.GC()
	start := time.Now()
	limit := 64 + int(opt.seconds*20)
	outs, arenas, err := sweepRuns(spec, limit, start.Add(seconds(opt.seconds)),
		runPlan{rounds: spec.roundsPerRun}, true)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	// The workers' last runs had no next run to be served during.
	for _, o := range outs {
		for len(o.slices) < spec.roundsPerRun && o.err == nil {
			o.err = serveSlice(o)
		}
	}
	// The arenas keep what the runners recycle: buffers grown to the
	// most any run of the worker needed, and a sortition cache the
	// runners drop at a high-water mark. With them still held, the live
	// heap is what the sweep keeps from run to run. The heap in use at a
	// moment of the sweep also holds garbage, whose amount depends on
	// when the collector last ran and varies from process to process by
	// up to a fifth.
	runtime.GC()
	peakHeap := heapLive()
	runtime.KeepAlive(arenas)
	checkRuns(spec, outs, rep, opt.log)

	var rounds, jobs, cached, ttfr sample
	var setupS []float64
	totalRounds := 0
	for _, o := range outs {
		for _, d := range o.roundWalls {
			rounds.add(d)
		}
		totalRounds += len(o.outcomes)
		jobs.add(o.end.Sub(o.start) - o.serving)
		if len(o.slices) > 0 {
			cached.add(meanOf(o.slices))
		}
		ttfr.add(o.firstRow.Sub(o.start))
		setupS = append(setupS, (o.popDur + o.newDur + o.warmDur).Seconds())
	}
	rep.values["rounds_per_s"] = float64(totalRounds) / wall.Seconds()
	putTimings(rep, opt.log, "round_ms", &rounds)
	rep.values["setup_s"] = medianFloat(setupS)
	rep.values["peak_heap_mb"] = mb(peakHeap)
	putTimings(rep, opt.log, "job_ms", &jobs)
	putTimings(rep, opt.log, "cached_job_ms", &cached)
	rep.values["ttfr_ms_p50"] = ttfr.medianMS()
	rep.values["jobs_per_s"] = float64(len(outs)) / wall.Seconds()
	fmt.Fprintf(opt.log, "%s: %d runs, %d rounds in %.2fs on %d worker(s)\n", spec.name, len(outs), totalRounds, wall.Seconds(), spec.workers)
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// sliceReplays is how many replays one cached request makes.
const sliceReplays = 7

// serveSlice serves a finished run's recorded rows again with no
// simulation, the work the daemon does for a cell its cache holds: it
// encodes them onto a fresh wire stream sliceReplays times and records
// the median, so that a garbage collection landing in a replay does not
// become the request's time. Replays take tens of microseconds, and how
// fast the host runs them changes from second to second, so a run is
// served once after each round of its worker's next run: its cached
// time, the mean of those requests, covers the second and more that run
// takes rather than one instant. A replay that encodes other bytes than
// the run streamed is an error.
func serveSlice(o *runOut) error {
	d := make([]time.Duration, 0, sliceReplays)
	for i := 0; i < sliceReplays; i++ {
		t0 := time.Now()
		wire, err := encodeRun(o)
		d = append(d, time.Since(t0))
		if err == nil && !bytes.Equal(wire, o.wire) {
			err = errors.New("the replay encoded other bytes")
		}
		if err != nil {
			return fmt.Errorf("serving run %d again: %w", o.key.index, err)
		}
	}
	o.slices = append(o.slices, medianOf(d))
	return nil
}

// encodeRun encodes a run's rows as one cell of the experiments wire
// stream, the form RunFig3 streams them to its sink in.
func encodeRun(o *runOut) ([]byte, error) {
	var buf bytes.Buffer
	ws := experiments.NewWireSink(&buf)
	cell := experiments.Cell{Index: o.key.index, Name: fmt.Sprintf("d%02.0f", o.rate*100), Seed: o.seed}
	if err := ws.CellStart(cell, outcomeColumns); err != nil {
		return nil, err
	}
	for i, r := range o.outcomes {
		if err := ws.Row(cell, experiments.Row{Index: i, Values: []float64{r.finalFrac, r.tentFrac, r.noneFrac}}); err != nil {
			return nil, err
		}
	}
	if err := ws.CellDone(cell); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
