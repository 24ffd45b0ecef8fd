package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

// tracedFig3 is a fig3 workload's --trace 1 run. It executes the same
// fixed runs twice: pass A untraced (the baseline for obs.overhead_frac
// and the allocation count), pass B with an obs registry per runner,
// wall-clock-only protocol.Hooks and spans at every benchmark call
// boundary. The per-layer metrics come from pass B, sized replays of
// single layers, and a re-run of the first run that must reproduce
// pass B's exact counts.
func tracedFig3(opt options, spec fig3Spec, rep *report) error {
	zeroLayers(rep)
	n, cfg := spec.traceRuns, spec.cfg

	// The exact-count re-run goes first: it also warms the process (heap
	// growth, page faults) so that pass A does not pay that alone.
	again, err := repeatFirstRun(spec)
	if err != nil {
		return err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startA := time.Now()
	outsA, _, err := sweepRuns(spec, n, time.Time{}, runPlan{rounds: spec.roundsPerRun}, false)
	if err != nil {
		return err
	}
	wallA := time.Since(startA)
	runtime.ReadMemStats(&after)
	roundsA := float64(countRounds(outsA))

	obs.Enable() // the run pool reports per-worker busy time to the global registry
	pool := obs.DefaultPool()
	busyBefore := workerBusy(pool, spec.workers)
	rec := newRecorder()
	runtime.GC()
	startB := time.Now()
	root := rec.reserve(0, spec.name)
	outsB, _, err := sweepRuns(spec, n, time.Time{}, runPlan{rounds: spec.roundsPerRun, traced: true, rec: rec, parent: root}, false)
	if err != nil {
		return err
	}
	wallB := time.Since(startB)
	rec.close(root, startB, time.Now())
	busy := workerBusy(pool, spec.workers) - busyBefore

	checkRuns(spec, outsA, rep, opt.log)
	checkRuns(spec, outsB, rep, opt.log)
	for i := range outsA {
		if i < len(outsB) && runDigest(outsA[i]) != runDigest(outsB[i]) {
			rep.fail(len(outsB[i].outcomes), "run %d: tracing changed the outcomes", i)
		}
	}
	checkCountsRepeat(spec, again, outsB, rep)

	var t struct {
		rounds, steps, events, scheduled, far, migrated  float64
		proposers, voters, decided, resyncs, desynced    float64
		hits, misses, refreshes, refreshNS, indexUpdates float64
		pushes, delivered, duplicate, dropped            float64
		pop, newRunner, warm                             []float64
	}
	for _, o := range outsB {
		m := o.metrics
		if m == nil {
			continue
		}
		t.rounds += float64(m.Rounds.Value())
		t.steps += float64(m.Steps.Value())
		t.events += float64(m.EventsExecuted.Value())
		t.scheduled += float64(m.EventsScheduled.Value())
		t.far += float64(m.EventsFar.Value())
		t.migrated += float64(m.EventsMigrated.Value())
		t.proposers += float64(m.Proposers.Value())
		t.voters += m.CommitteeSize.Sum()
		t.decided += float64(m.RoundsDecided.Value())
		t.resyncs += float64(m.Resyncs.Value())
		t.desynced += float64(m.DesyncedNodes.Value())
		t.hits += float64(m.SortitionHits.Value())
		t.misses += float64(m.SortitionMisses.Value())
		t.refreshes += float64(m.WeightRefreshes.Value())
		t.refreshNS += float64(m.WeightRefreshNS.Value())
		t.indexUpdates += float64(m.WeightIndexUpdate.Value())
		t.pushes += float64(o.net.Sent)
		t.delivered += float64(o.net.Delivered)
		t.duplicate += float64(o.net.Duplicate)
		t.dropped += float64(o.net.DroppedOffline + o.net.DroppedLoss + o.net.DroppedFault)
		t.pop = append(t.pop, ms(o.popDur))
		t.newRunner = append(t.newRunner, ms(o.newDur))
		t.warm = append(t.warm, ms(o.warmDur))
	}
	perRound := func(x float64) float64 { return ratio(x, t.rounds) }
	v := rep.values
	v["sim.events_per_round"] = perRound(t.events)
	v["sim.far_frac"] = ratio(t.far, t.scheduled)
	v["sim.migrated_per_round"] = perRound(t.migrated)
	v["network.pushes_per_round"] = perRound(t.pushes)
	v["network.deliveries_per_round"] = perRound(t.delivered)
	v["network.dup_frac"] = ratio(t.duplicate, t.duplicate+t.delivered)
	v["network.dropped_per_round"] = perRound(t.dropped)
	self := rec.selfTotals()
	v["protocol.preamble_ms"] = perRound(ms(self["preamble"]))
	v["protocol.steps_ms"] = perRound(ms(self["steps"]))
	v["protocol.finalize_ms"] = perRound(ms(self["finalize"]))
	v["protocol.voters_per_round"] = perRound(t.voters)
	v["protocol.proposers_per_round"] = perRound(t.proposers)
	v["protocol.decided_frac"] = perRound(t.decided)
	v["protocol.alloc_bytes_per_round"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), roundsA)
	v["sortition.selects_per_round"] = perRound(t.hits + t.misses)
	v["sortition.cache_hit_frac"] = ratio(t.hits, t.hits+t.misses)
	v["weight.refresh_us_per_round"] = ratio(t.refreshNS/1e3, t.refreshes)
	v["weight.index_updates_per_round"] = perRound(t.indexUpdates)
	v["ledger.resyncs_per_round"] = perRound(t.resyncs)
	v["ledger.desynced_per_round"] = perRound(t.desynced)
	v["setup.population_ms"] = medianFloat(t.pop)
	v["setup.new_runner_ms"] = medianFloat(t.newRunner)
	v["setup.first_round_ms"] = medianFloat(t.warm)
	v["runpool.worker_busy_frac"] = ratio(busy, float64(spec.workers)*float64(wallB))
	v["obs.overhead_frac"] = 1 - ratio(float64(countRounds(outsB))/wallB.Seconds(), roundsA/wallA.Seconds())

	var rows, wireBytes int
	sink := &timingSink{inner: experiments.NewSummarySink(0)}
	for _, o := range outsB {
		rows += len(o.outcomes)
		wireBytes += len(o.wire)
		if err := experiments.ReplayWire(bytes.NewReader(o.wire), sink); err != nil {
			rep.fail(len(o.outcomes), "run %d: wire replay: %v", o.key.index, err)
		}
	}
	v["experiments.sink_us_per_row"] = ratio(float64(sink.spent)/1e3, float64(sink.rows))
	v["experiments.rows_per_job"] = ratio(float64(rows), float64(len(outsB)))
	v["experiments.wire_bytes_per_row"] = ratio(float64(wireBytes), float64(rows))

	// Layer replays, sized from pass B's own counts.
	seed := opt.seed
	events, pushes := perRound(t.events), perRound(t.pushes)
	simNS := replaySim(int(math.Round(events)), int(math.Round(perRound(t.steps))), seed)
	netNS := replayNetwork(int(math.Round(pushes)), cfg.Fanout, seed)
	v["sim.ns_per_event"] = simNS
	v["network.ns_per_push"] = netNS
	v["sortition.ns_per_select"] = replaySortition(int(math.Round(perRound(t.hits+t.misses))), cfg.Nodes, cfg.StakeDist, cfg.Params.TauStep, seed)
	v["ledger.clone_view_ns"] = replayLedger(max(100, int(math.Round(perRound(t.resyncs)))), cfg.Nodes, cfg.StakeDist, seed)
	v["protocol.handler_ms_derived"] = v["protocol.steps_ms"] - ((events-pushes)*simNS+pushes*netNS)/1e6

	if err := rec.write(opt.out, fmt.Sprintf("spans_%s_seed%d.json", spec.name, opt.seed)); err != nil {
		return err
	}
	fmt.Fprintf(opt.log, "%s traced: %d runs, pass A %.2fs, pass B %.2fs\n", spec.name, len(outsB), wallA.Seconds(), wallB.Seconds())
	return nil
}

func countRounds(outs []*runOut) int {
	n := 0
	for _, o := range outs {
		n += len(o.outcomes)
	}
	return n
}

// workerBusy sums the run pool's per-worker busy nanoseconds.
func workerBusy(pool *obs.PoolMetrics, workers int) float64 {
	var sum float64
	for w := 0; w < workers; w++ {
		sum += float64(pool.WorkerBusy(w).Value())
	}
	return sum
}

// repeatRounds is how many rounds of the first traced run are
// simulated again for the exact-count check.
const repeatRounds = 2

// repeatFirstRun runs the first run of the sequence alone, traced, for
// its first repeatRounds rounds on a fresh arena.
func repeatFirstRun(spec fig3Spec) (*runOut, error) {
	o := runFig3Run(spec, runKeyAt(spec.cfg, 0), protocol.NewArena(),
		runPlan{rounds: min(repeatRounds, spec.roundsPerRun), traced: true})
	return o, o.err
}

// checkCountsRepeat requires the deterministic counts of the separate
// re-run of the first run — scheduler events, network
// pushes/deliveries/duplicates/drops, resyncs, desynced nodes and
// sortition lookups — to equal the traced pass's exactly. It counts as
// one attempted operation.
func checkCountsRepeat(spec fig3Spec, again *runOut, outs []*runOut, rep *report) {
	rep.attempted++
	if len(outs) == 0 || outs[0].key.index != 0 || outs[0].err != nil {
		rep.fail(1, "exact-count check: traced run 0 missing")
		return
	}
	for i := range again.counts {
		if again.counts[i] != outs[0].counts[i] {
			rep.fail(1, "exact-count check: round %d counts %+v, traced pass had %+v", i, again.counts[i], outs[0].counts[i])
			return
		}
	}
}

// timingSink times the calls into an experiments.Sink.
type timingSink struct {
	inner experiments.Sink
	spent time.Duration
	rows  int
}

func (s *timingSink) timed(f func() error) error {
	t0 := time.Now()
	err := f()
	s.spent += time.Since(t0)
	return err
}

func (s *timingSink) CellStart(c experiments.Cell, cols []string) error {
	return s.timed(func() error { return s.inner.CellStart(c, cols) })
}

func (s *timingSink) Row(c experiments.Cell, r experiments.Row) error {
	s.rows++
	return s.timed(func() error { return s.inner.Row(c, r) })
}

func (s *timingSink) AuditEvent(c experiments.Cell, a adversary.Report) error {
	return s.timed(func() error { return s.inner.AuditEvent(c, a) })
}

func (s *timingSink) CellDone(c experiments.Cell) error {
	return s.timed(func() error { return s.inner.CellDone(c) })
}
