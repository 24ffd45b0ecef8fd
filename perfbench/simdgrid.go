package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/simd"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// simdSpec sizes the simd_grid workload: a closed loop of one client
// over one HTTP connection to an in-process daemon whose worker budget
// is the benchmark's worker count. Each cycle covers all eight builtin
// scenarios as eight two-cell grid jobs (one scenario × seeds 1 and 2,
// so the two cells cost alike and keep both workers busy); every job is
// submitted cold and then resubmitted so the cell cache serves it
// entirely.
type simdSpec struct {
	nodes, rounds int
	// cachedRepeats is how often each cold job is resubmitted.
	cachedRepeats int
	// traceCycles is the fixed cycle count of each traced pass.
	traceCycles int
	workers     int
}

func newSimdSpec(opt options) simdSpec {
	s := simdSpec{nodes: 100, rounds: 8, cachedRepeats: 10, traceCycles: 1, workers: opt.workers}
	if opt.tiny {
		s.nodes, s.rounds = 30, 3
	}
	return s
}

// maxCycles bounds the job sequence; a run stops at its deadline long
// before (a cycle takes seconds).
const maxCycles = 24

// gridJob is one job of the seeded sequence.
type gridJob struct {
	spec  simd.GridJobSpec
	cells int
}

// jobSequence derives the run's jobs from the seed: per cycle a seeded
// order of the scenarios, and per pair of cycles a seeded node offset d
// in 1..maxCycles/2, taken as nodes+d and nodes-d. Every cycle thus has
// its own node count, so no cold job finds its cells cached, while each
// pair of cycles averages to the spec's node count.
func jobSequence(seed int64, s simdSpec) []gridJob {
	rng := rand.New(rand.NewSource(seed))
	names := adversary.Names()
	offsets := rng.Perm(maxCycles / 2)
	var jobs []gridJob
	for c := 0; c < maxCycles; c++ {
		nodes := s.nodes + offsets[c/2] + 1
		if c%2 == 1 {
			nodes = s.nodes - offsets[c/2] - 1
		}
		for _, i := range rng.Perm(len(names)) {
			jobs = append(jobs, gridJob{cells: 2, spec: simd.GridJobSpec{
				CommonSpec: simd.CommonSpec{Workers: s.workers},
				Scenarios:  []string{names[i]},
				Seeds:      2, Nodes: nodes, Rounds: s.rounds,
			}})
		}
	}
	return jobs
}

// daemon is one in-process simd instance served on a loopback listener.
type daemon struct {
	srv    *simd.Server
	hs     *http.Server
	served chan struct{}
	client *simd.Client
	tr     *http.Transport
}

// startDaemon starts a daemon and runs one small warm-up job through
// it; the warm-up belongs to start-up (first-request latency).
func startDaemon(workers int) (*daemon, error) {
	srv, err := simd.New(simd.Config{MaxWorkers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{}), tr: tr,
		client: &simd.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	warm := gridJob{cells: 1, spec: simd.GridJobSpec{
		CommonSpec: simd.CommonSpec{Workers: workers},
		Scenarios:  []string{adversary.HonestBaseline}, Seeds: 1, Nodes: 40, Rounds: 3,
	}}
	if _, err := d.run(warm, nil, 0); err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return d, nil
}

// stop drains the daemon and its HTTP server and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every job has settled by the time stop is called
	_ = d.hs.Shutdown(ctx)
	<-d.served
	d.tr.CloseIdleConnections()
}

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	t0, submitted, firstRow, end time.Time
	stream                       []byte
	status                       simd.JobStatus
	// roundWallNS/rounds are the obs registry's round wall time and round
	// count accrued while the job ran.
	roundWallNS, rounds uint64
}

var rowMarker = []byte(`"event":"row"`)

// run submits one job, reads its stream to the end and fetches its
// final status. With a recorder it records the job's spans.
func (d *daemon) run(job gridJob, rec *recorder, parent int64) (*jobRun, error) {
	m := obs.DefaultSim()
	wall0, rounds0 := m.RoundWallNS.Value(), m.Rounds.Value()
	r := &jobRun{t0: time.Now()}
	st, err := d.client.Submit(simd.JobRequest{Kind: simd.KindGrid, Grid: &job.spec})
	if err != nil {
		return nil, err
	}
	r.submitted = time.Now()
	body, err := d.client.Stream(st.ID)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadSlice('\n')
		buf.Write(line)
		if r.firstRow.IsZero() && bytes.Contains(line, rowMarker) {
			r.firstRow = time.Now()
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			body.Close()
			return nil, err
		}
	}
	body.Close()
	r.end = time.Now()
	r.stream = buf.Bytes()
	r.roundWallNS, r.rounds = m.RoundWallNS.Value()-wall0, m.Rounds.Value()-rounds0
	if r.status, err = d.client.Status(st.ID); err != nil {
		return nil, err
	}
	if r.status.State != simd.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, r.status.State, r.status.Error)
	}
	if r.firstRow.IsZero() {
		r.firstRow = r.end
	}
	if rec != nil {
		id := rec.reserve(parent, "job")
		rec.add(id, "submit", r.t0, r.submitted)
		rec.add(id, "first_row", r.submitted, r.firstRow)
		rec.add(id, "stream_end", r.firstRow, r.end)
		rec.close(id, r.t0, r.end)
	}
	return r, nil
}

// loopResult is one pass of the closed loop.
type loopResult struct {
	wall         time.Duration
	cold, cached []*jobRun
	coldJobs     []gridJob
	roundsSimmed int
	// peakHeap is, per cold job, the largest in-use heap at the end of
	// the job and of its cached resubmissions.
	peakHeap      []uint64
	failedReasons []string
}

// loop runs jobs from the sequence until the deadline (or, with a zero
// deadline, exactly `limit` jobs), each cold and then cachedRepeats
// times from the cache, and checks every cached stream against its
// cold one.
func (d *daemon) loop(s simdSpec, seq []gridJob, limit int, deadline time.Time, rec *recorder, parent int64) (*loopResult, error) {
	res := &loopResult{}
	start := time.Now()
	for i := 0; i < min(limit, len(seq)); i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		cold, err := d.run(seq[i], rec, parent)
		if err != nil {
			return nil, err
		}
		peak := heapInUse()
		res.cold = append(res.cold, cold)
		res.coldJobs = append(res.coldJobs, seq[i])
		res.roundsSimmed += seq[i].cells * s.rounds
		for k := 0; k < s.cachedRepeats; k++ {
			c, err := d.run(seq[i], rec, parent)
			if err != nil {
				return nil, err
			}
			peak = max(peak, heapInUse())
			res.cached = append(res.cached, c)
			if !bytes.Equal(c.stream, cold.stream) || c.status.CachedCells != seq[i].cells {
				res.failedReasons = append(res.failedReasons, fmt.Sprintf(
					"job %d: cached stream differs from the cold one or was not served from the cache (%d of %d cells cached)",
					i, c.status.CachedCells, seq[i].cells))
			}
		}
		res.peakHeap = append(res.peakHeap, peak)
	}
	res.wall = time.Since(start)
	return res, nil
}

// checkLoop replays every cold stream through simd.WriteGridOutputs
// (the CLI's file writer) and counts safety violations. Every job is one
// attempted operation.
func checkLoop(opt options, res *loopResult, rep *report) (violations int) {
	rep.attempted += len(res.cold) + len(res.cached)
	for _, reason := range res.failedReasons {
		rep.fail(1, "%s", reason)
	}
	dir := filepath.Join(opt.out, "simd_replay")
	for i, c := range res.cold {
		n, err := simd.WriteGridOutputs(bytes.NewReader(c.stream), res.coldJobs[i].spec, dir, nil)
		if err != nil {
			rep.fail(1, "job %d: stream does not replay through WriteGridOutputs: %v", i, err)
		} else if n > 0 {
			rep.fail(1, "job %d: %d safety violations", i, n)
		}
		violations += n
		if err := os.RemoveAll(dir); err != nil {
			rep.fail(0, "removing replay outputs: %v", err)
		}
	}
	return violations
}

// setupRepeats is how many daemon start-ups set-up time is the median of.
const setupRepeats = 7

// startDaemons starts the daemon setupRepeats times, stopping all but
// the last, and returns it with the start-up times in seconds.
func startDaemons(workers int) (*daemon, []float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(workers); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

func runSimdGrid(opt options) (*report, error) {
	s := newSimdSpec(opt)
	seq := jobSequence(opt.seed, s)
	if opt.trace {
		return tracedSimd(opt, s, seq)
	}
	rep := newReport()
	d, setups, err := startDaemons(s.workers)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	runtime.GC()
	res, err := d.loop(s, seq, len(seq), time.Now().Add(seconds(opt.seconds)), nil, 0)
	if err != nil {
		return nil, err
	}
	checkLoop(opt, res, rep)

	var rounds, jobs, cached, ttfr sample
	for _, c := range res.cold {
		jobs.add(c.end.Sub(c.t0))
		ttfr.add(c.firstRow.Sub(c.t0))
		if c.rounds > 0 {
			rounds.add(time.Duration(c.roundWallNS / c.rounds))
		}
	}
	// Each cold job's cached resubmissions give one sample, their median.
	for i := range res.cold {
		var d []time.Duration
		for _, c := range res.cached[i*s.cachedRepeats : (i+1)*s.cachedRepeats] {
			d = append(d, c.end.Sub(c.t0))
		}
		cached.add(medianOf(d))
	}
	rep.values["rounds_per_s"] = float64(res.roundsSimmed) / res.wall.Seconds()
	putTimings(rep, opt.log, "round_ms", &rounds)
	rep.values["setup_s"] = medianFloat(setups)
	var heapMB []float64
	for _, p := range res.peakHeap {
		heapMB = append(heapMB, mb(p))
	}
	rep.values["peak_heap_mb"] = medianFloat(heapMB)
	putTimings(rep, opt.log, "job_ms", &jobs)
	putTimings(rep, opt.log, "cached_job_ms", &cached)
	rep.values["ttfr_ms_p50"] = ttfr.medianMS()
	rep.values["jobs_per_s"] = float64(len(res.cold)+len(res.cached)) / res.wall.Seconds()
	fmt.Fprintf(opt.log, "simd_grid: %d cold and %d cached jobs in %.2fs\n", len(res.cold), len(res.cached), res.wall.Seconds())
	return rep, nil
}

// registryDelta subtracts two DeterministicTotals snapshots.
func registryDelta(after, before map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// sumPrefix adds every entry whose key starts with prefix.
func sumPrefix(m map[string]uint64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += float64(v)
		}
	}
	return sum
}

// tracedSimd is simd_grid's --trace 1 run: a fixed job set run untraced
// on one daemon (pass A), then traced with job spans on a fresh daemon
// (pass B, so every cold job is cold again), then the first job once
// more on a third daemon, whose registry counts must repeat pass B's.
func tracedSimd(opt options, s simdSpec, seq []gridJob) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	limit := len(adversary.Names()) * s.traceCycles

	d, _, err := startDaemons(s.workers)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resA, err := d.loop(s, seq, limit, time.Time{}, nil, 0)
	runtime.ReadMemStats(&after)
	d.stop()
	if err != nil {
		return nil, err
	}
	checkLoop(opt, resA, rep)

	if d, err = startDaemon(s.workers); err != nil {
		return nil, err
	}
	reg := obs.Default()
	m := obs.DefaultSim()
	sm := obs.NewSimdMetrics(reg)
	pool := obs.DefaultPool()
	rec := newRecorder()
	runtime.GC()
	var heap0, heap1 runtime.MemStats
	runtime.ReadMemStats(&heap0)
	totals0 := reg.DeterministicTotals()
	hits0, misses0 := sm.CellCacheHits.Value(), sm.CellCacheMisses.Value()
	busy0 := workerBusy(pool, s.workers)
	refreshNS0, selects0 := m.WeightRefreshNS.Value(), m.SortitionHits.Value()+m.SortitionMisses.Value()
	hitsOnly0, voters0 := m.SortitionHits.Value(), m.CommitteeSize.Sum()
	startB := time.Now()
	root := rec.reserve(0, "simd_grid")
	// Job 0 runs alone first so its registry delta can be compared with
	// the re-run below.
	job0Before := reg.DeterministicTotals()
	first, err := d.run(seq[0], rec, root)
	if err != nil {
		d.stop()
		return nil, err
	}
	job0 := registryDelta(reg.DeterministicTotals(), job0Before)
	resB, err := d.loop(s, seq[1:], limit-1, time.Time{}, rec, root)
	if err != nil {
		d.stop()
		return nil, err
	}
	resB.cold = append([]*jobRun{first}, resB.cold...)
	resB.coldJobs = append([]gridJob{seq[0]}, resB.coldJobs...)
	resB.roundsSimmed += seq[0].cells * s.rounds
	wallB := time.Since(startB)
	rec.close(root, startB, time.Now())
	totals := registryDelta(reg.DeterministicTotals(), totals0)
	busy := workerBusy(pool, s.workers) - busy0
	refreshNS := float64(m.WeightRefreshNS.Value() - refreshNS0)
	selects := float64(m.SortitionHits.Value() + m.SortitionMisses.Value() - selects0)
	hits := float64(m.SortitionHits.Value() - hitsOnly0)
	voters := m.CommitteeSize.Sum() - voters0
	cacheHits, cacheMisses := float64(sm.CellCacheHits.Value()-hits0), float64(sm.CellCacheMisses.Value()-misses0)
	jobsB := len(resB.cold) + len(resB.cached)
	d.stop()
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	violations := checkLoop(opt, resB, rep)

	// Exact-count check: job 0 again, cold, on a fresh daemon.
	rep.attempted++
	if d, err = startDaemon(s.workers); err != nil {
		return nil, err
	}
	againBefore := reg.DeterministicTotals()
	_, err = d.run(seq[0], nil, 0)
	again := registryDelta(reg.DeterministicTotals(), againBefore)
	d.stop()
	if err != nil {
		return nil, err
	}
	if diff := diffCounts(job0, again); diff != "" {
		rep.fail(1, "exact-count check: job 0's registry counts did not repeat: %s", diff)
	}

	rounds := float64(totals["sim_rounds_total"])
	perRound := func(key string) float64 { return ratio(float64(totals[key]), rounds) }
	v := rep.values
	v["sim.events_per_round"] = perRound("sim_events_executed_total")
	v["sim.far_frac"] = ratio(float64(totals["sim_events_far_total"]), float64(totals["sim_events_scheduled_total"]))
	v["sim.migrated_per_round"] = perRound("sim_events_migrated_total")
	v["protocol.voters_per_round"] = ratio(voters, rounds)
	v["protocol.proposers_per_round"] = perRound("sim_proposers_total")
	v["protocol.decided_frac"] = perRound("sim_rounds_decided_total")
	v["protocol.alloc_bytes_per_round"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(resA.roundsSimmed))
	v["sortition.selects_per_round"] = ratio(selects, rounds)
	v["sortition.cache_hit_frac"] = ratio(hits, selects)
	v["weight.refresh_us_per_round"] = ratio(refreshNS/1e3, float64(totals["sim_weight_refreshes_total"]))
	v["weight.index_updates_per_round"] = perRound("sim_weight_index_updates_total")
	v["ledger.resyncs_per_round"] = perRound("sim_resyncs_total")
	v["ledger.desynced_per_round"] = perRound("sim_desynced_node_rounds_total")
	v["adversary.safety_violations"] = float64(violations)
	v["adversary.audit_events_per_job"] = ratio(sumPrefix(totals, "exp_audit_events_total"), float64(len(resB.cold)))
	v["runpool.worker_busy_frac"] = ratio(busy, float64(s.workers)*float64(wallB))
	v["simd.cache_hit_frac"] = ratio(cacheHits, cacheHits+cacheMisses)
	v["simd.retained_heap_mb_per_job"] = ratio((float64(heap1.HeapAlloc)-float64(heap0.HeapAlloc))/(1<<20), float64(jobsB))
	rpsA := float64(resA.roundsSimmed) / resA.wall.Seconds()
	v["obs.overhead_frac"] = 1 - ratio(float64(resB.roundsSimmed)/wallB.Seconds(), rpsA)

	var submit sample
	var streamBytes, rows int
	sink := &timingSink{inner: experiments.NewSummarySink(0)}
	for _, c := range append(append([]*jobRun(nil), resB.cold...), resB.cached...) {
		submit.add(c.submitted.Sub(c.t0))
		streamBytes += len(c.stream)
	}
	for i, c := range resB.cold {
		before := sink.rows
		if err := experiments.ReplayWire(bytes.NewReader(c.stream), sink); err != nil {
			rep.fail(1, "job %d: wire replay: %v", i, err)
		}
		rows += sink.rows - before
	}
	v["simd.submit_ms"] = submit.medianMS()
	v["simd.stream_bytes_per_job"] = ratio(float64(streamBytes), float64(jobsB))
	v["experiments.sink_us_per_row"] = ratio(float64(sink.spent)/1e3, float64(sink.rows))
	v["experiments.rows_per_job"] = ratio(float64(rows), float64(len(resB.cold)))
	coldBytes := 0
	for _, c := range resB.cold {
		coldBytes += len(c.stream)
	}
	v["experiments.wire_bytes_per_row"] = ratio(float64(coldBytes), float64(rows))

	// Layer replays, sized from pass B's registry counts. The daemon's
	// runners are internal to it, so network traffic is not observable
	// here and the network replay is not sized (0).
	grid := experiments.FullScenarioGridConfig()
	params := protocol.DefaultParams()
	steps := perRound("sim_steps_total")
	v["sim.ns_per_event"] = replaySim(int(math.Round(v["sim.events_per_round"])), int(math.Round(steps)), opt.seed)
	v["sortition.ns_per_select"] = replaySortition(int(math.Round(v["sortition.selects_per_round"])), s.nodes, stake.UniformInt{A: 1, B: 50}, params.TauStep, opt.seed)
	v["ledger.clone_view_ns"] = replayLedger(max(100, int(math.Round(v["ledger.resyncs_per_round"]))), s.nodes, grid.StakeDist, opt.seed)

	if err := rec.write(opt.out, fmt.Sprintf("spans_simd_grid_seed%d.json", opt.seed)); err != nil {
		return nil, err
	}
	fmt.Fprintf(opt.log, "simd_grid traced: %d cold + %d cached jobs, pass A %.2fs, pass B %.2fs\n",
		len(resB.cold), len(resB.cached), resA.wall.Seconds(), wallB.Seconds())
	return rep, nil
}

// diffCounts describes the first difference between two registry
// deltas, ignoring the daemon's own job bookkeeping and histogram sums
// (a difference of float bit patterns is not a count).
func diffCounts(a, b map[string]uint64) string {
	keys := make(map[string]bool)
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		if strings.HasPrefix(k, "simd_") || strings.HasSuffix(k, "!sumbits") {
			continue
		}
		if a[k] != b[k] {
			return fmt.Sprintf("%s %d vs %d", k, a[k], b[k])
		}
	}
	return ""
}
