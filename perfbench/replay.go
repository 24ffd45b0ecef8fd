package main

import (
	"math/rand"
	"sort"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// Layer replays time one layer alone on inputs sized from a traced
// run's own counts. Each replays `reps` times and reports the median
// cost per operation in nanoseconds; a count of 0 means the workload
// did not exercise the layer and reports 0.

const replayReps = 5

func medianNS(reps int, op func() (time.Duration, int)) float64 {
	per := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, n := op()
		if n > 0 {
			per = append(per, float64(d)/float64(n))
		}
	}
	sort.Float64s(per)
	return medianFloat(per)
}

// replaySim pushes `events` events through a fresh sim.Engine with
// ScheduleFn and drains it with Run. Delays follow the protocol's
// default per-hop law, and events arrive in `waves` cascades the way a
// round's steps release them: each executed event schedules the next
// until the count is reached.
func replaySim(events, waves int, seed int64) float64 {
	if events <= 0 {
		return 0
	}
	waves = max(1, waves)
	law := protocol.HeavyTailDefault()
	rng := sim.NewRNG(seed, "perfbench.sim")
	delays := make([]time.Duration, events)
	for i := range delays {
		delays[i] = law.Sample(rng)
	}
	horizon := law.(network.BoundedDelay).MaxDelay()
	return medianNS(replayReps, func() (time.Duration, int) {
		eng := sim.NewEngine(seed)
		eng.HintHorizon(horizon)
		next, fired := 0, 0
		var fn func(int, any)
		fn = func(int, any) {
			fired++
			if next < events {
				eng.ScheduleFn(delays[next], fn, next, nil)
				next++
			}
		}
		start := time.Now()
		for next < max(1, events/waves) {
			eng.ScheduleFn(delays[next], fn, next, nil)
			next++
		}
		_ = eng.Run(0)
		return time.Since(start), fired
	})
}

// replayNetwork gossips fresh messages from random origins over a
// standalone 100-node fabric (the paper's fanout 5, the protocol's
// default loss and delay law, a no-op handler) until `pushes` pushes
// have been sent, draining the engine after each message; that is one
// replayed round.
func replayNetwork(pushes int, fanout int, seed int64) float64 {
	if pushes <= 0 {
		return 0
	}
	const nodes = 100
	return medianNS(replayReps, func() (time.Duration, int) {
		eng := sim.NewEngine(seed)
		net, err := network.New(network.Config{
			N: nodes, Fanout: fanout, Delay: protocol.HeavyTailDefault(), LossProb: protocol.DefaultLossProb,
		}, eng, func(int, network.Message) {})
		if err != nil {
			panic(err) // the configuration above is valid by construction
		}
		rng := rand.New(rand.NewSource(seed))
		start := time.Now()
		for id := uint64(1); net.Stats().Sent < uint64(pushes); id++ {
			var msg network.Message
			for b := 0; b < 8; b++ {
				msg.ID[b] = byte(id >> (8 * b))
			}
			net.Gossip(rng.Intn(nodes), msg)
			_ = eng.Run(0)
		}
		return time.Since(start), int(net.Stats().Sent)
	})
}

// replaySortition runs `selects` sortition.Cache.Select calls over
// `accounts` keys with stakes from the workload's stake law, at the
// workload's committee tau.
func replaySortition(selects, accounts int, dist stake.Distribution, tau float64, seed int64) float64 {
	if selects <= 0 {
		return 0
	}
	accounts = max(1, min(accounts, 4096))
	rng := sim.NewRNG(seed, "perfbench.sortition")
	pop, err := stake.SamplePopulation(dist, accounts, rng)
	if err != nil {
		panic(err) // the workload's own distribution and a positive count
	}
	keys := make([]vrf.KeyPair, accounts)
	for i := range keys {
		keys[i] = vrf.GenerateKey(rng)
	}
	total := pop.Total()
	if tau <= 1 {
		tau *= total
	}
	return medianNS(replayReps, func() (time.Duration, int) {
		cache := sortition.NewCache()
		p := sortition.Params{Role: sortition.RoleCommittee, Round: 1, Tau: tau, TotalStake: total}
		start := time.Now()
		for i := 0; i < selects; i++ {
			p.Step = uint64(i / accounts)
			k := i % accounts
			if _, err := cache.Select(keys[k].Private, pop.Stakes[k], p); err != nil {
				panic(err)
			}
		}
		return time.Since(start), selects
	})
}

// replayLedger times CloneView followed by one Credit — a catch-up
// resync's ledger work — on a genesis ledger of `accounts` accounts,
// `ops` times.
func replayLedger(ops, accounts int, dist stake.Distribution, seed int64) float64 {
	if ops <= 0 || accounts <= 0 {
		return 0
	}
	rng := sim.NewRNG(seed, "perfbench.ledger")
	pop, err := stake.SamplePopulation(dist, accounts, rng)
	if err != nil {
		panic(err)
	}
	base := ledger.Genesis(pop.Stakes, rng)
	return medianNS(replayReps, func() (time.Duration, int) {
		start := time.Now()
		for i := 0; i < ops; i++ {
			v := base.CloneView()
			if err := v.Credit(i%accounts, 1); err != nil {
				panic(err)
			}
		}
		return time.Since(start), ops
	})
}
