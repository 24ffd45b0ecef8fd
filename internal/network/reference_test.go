package network

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/sim"
)

// refNetwork is the push-every-hop reference model for Network: every
// push that survives the fault, loss and delay draws is scheduled, and
// duplicates are found on arrival in per-node dedupSet tables. It draws
// topology and delays from the same engine streams as Network, in the
// same order, so both see identical randomness.
type refNetwork struct {
	cfg     Config
	engine  *sim.Engine
	rng     *rand.Rand
	peers   [][]int
	handler Handler
	relay   []bool
	online  []bool
	seen    []dedupSet
	factor  float64
	overlay FaultOverlay
	stats   Stats
	// offlineAfterReach counts arrivals dropped at offline peers that were
	// online and already held the message when the push was sent: Network
	// skips those pushes and counts them as Duplicate (see Stats).
	offlineAfterReach uint64
}

// refArrival is one scheduled hop; dup records whether the peer was
// online and already held the message at push time.
type refArrival struct {
	msg *Message
	dup bool
}

func newRefNetwork(cfg Config, engine *sim.Engine, handler Handler) *refNetwork {
	if cfg.Fanout >= cfg.N {
		cfg.Fanout = cfg.N - 1
	}
	n := &refNetwork{
		cfg:     cfg,
		engine:  engine,
		rng:     engine.RNG("network.delays"),
		peers:   buildTopology(cfg.N, cfg.Fanout, engine.RNG("network.topology"), nil),
		handler: handler,
		relay:   make([]bool, cfg.N),
		online:  make([]bool, cfg.N),
		seen:    make([]dedupSet, cfg.N),
		factor:  1,
	}
	for i := range n.relay {
		n.relay[i], n.online[i] = true, true
	}
	return n
}

func (n *refNetwork) Gossip(origin int, msg Message) {
	if !n.online[origin] || !n.seen[origin].insert(&msg.ID) {
		return
	}
	n.stats.Delivered++
	n.handler(origin, msg)
	if n.relay[origin] {
		shared := msg
		n.push(origin, &shared)
	}
}

func (n *refNetwork) push(from int, msg *Message) {
	for _, peer := range n.peers[from] {
		var fault LinkFault
		if n.overlay != nil {
			fault = n.overlay.Link(from, peer)
			if fault.Drop {
				n.stats.DroppedFault++
				continue
			}
		}
		if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
			n.stats.DroppedLoss++
			continue
		}
		if fault.Loss > 0 && n.rng.Float64() < fault.Loss {
			n.stats.DroppedLoss++
			continue
		}
		delay := time.Duration(float64(n.cfg.Delay.Sample(n.rng)) * n.factor)
		if fault.DelayScale > 1 {
			delay = time.Duration(float64(delay) * fault.DelayScale)
		}
		n.stats.Sent++
		dup := n.online[peer] && n.seen[peer].contains(&msg.ID)
		n.engine.ScheduleFn(delay, n.deliver, peer, refArrival{msg, dup})
	}
}

func (n *refNetwork) deliver(node int, payload any) {
	a := payload.(refArrival)
	if !n.online[node] {
		n.stats.DroppedOffline++
		if a.dup {
			n.offlineAfterReach++
		}
		return
	}
	if !n.seen[node].insert(&a.msg.ID) {
		n.stats.Duplicate++
		return
	}
	n.stats.Delivered++
	n.handler(node, *a.msg)
	if n.relay[node] {
		n.push(node, a.msg)
	}
}

func (n *refNetwork) ResetSeen() {
	for i := range n.seen {
		n.seen[i].reset()
	}
}

func (n *refNetwork) SetOnline(i int, online bool) { n.online[i] = online }
func (n *refNetwork) SetRelay(i int, relays bool)  { n.relay[i] = relays }
func (n *refNetwork) SetDelayFactor(f float64)     { n.factor = f }

// fabric is the surface the equivalence driver exercises on both models.
type fabric interface {
	Gossip(origin int, msg Message)
	ResetSeen()
	SetOnline(i int, online bool)
	SetRelay(i int, relays bool)
	SetDelayFactor(f float64)
}

// hashOverlay is a deterministic fault overlay: a hash of the hop picks
// severed links, loss bursts and delay spikes.
type hashOverlay struct{ salt uint64 }

func (o hashOverlay) Link(from, to int) LinkFault {
	h := (uint64(from)*0x9e3779b97f4a7c15 ^ uint64(to)*0xbf58476d1ce4e5b9 ^ o.salt) * 0x94d049bb133111eb
	h ^= h >> 31
	var f LinkFault
	switch h % 23 {
	case 0:
		f.Drop = true
	case 1, 2:
		f.Loss = 0.5
	case 3, 4, 5:
		f.DelayScale = 4
	}
	return f
}

// refEvent is one handler call: the observable behaviour both models
// must share.
type refEvent struct {
	node int
	id   [32]byte
	at   time.Duration
}

// refScenario is a randomized gossip workload, drawn once and replayed
// on both models.
type refScenario struct {
	cfg     Config
	seed    int64
	overlay bool
	noRelay []int
	rounds  [][]refOp
	factors []float64
}

// refOp is one scheduled action within a round: a gossip injection, a
// node going offline, or a delay-factor change.
type refOp struct {
	at     time.Duration
	kind   int // 0 gossip, 1 offline, 2 delay factor
	node   int
	id     [32]byte
	factor float64
}

func drawScenario(seed int64) refScenario {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{2, 3, 7, 30, 64, 65, 100, 600}
	n := sizes[rng.Intn(len(sizes))]
	var delay DelayModel = UniformDelay{Min: time.Millisecond, Max: time.Duration(1+rng.Intn(30)) * time.Millisecond}
	if rng.Intn(2) == 0 {
		delay = HeavyTailDelay{Base: UniformDelay{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond}, SlowProb: 0.1, SlowFactor: 5}
	}
	sc := refScenario{
		cfg: Config{
			N:        n,
			Fanout:   1 + rng.Intn(6),
			Delay:    delay,
			LossProb: []float64{0, 0, 0.1, 0.3}[rng.Intn(4)],
		},
		seed:    seed,
		overlay: rng.Intn(2) == 0,
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			sc.noRelay = append(sc.noRelay, i)
		}
	}
	for round := 0; round < 3; round++ {
		sc.factors = append(sc.factors, []float64{1, 1, 2.5, 0.5}[rng.Intn(4)])
		var ops []refOp
		for k := 0; k < 1+rng.Intn(12); k++ {
			var id [32]byte
			rng.Read(id[:])
			if k > 0 && rng.Intn(6) == 0 {
				id = ops[rng.Intn(len(ops))].id // re-injection of a live message
			}
			ops = append(ops, refOp{at: time.Duration(rng.Intn(40)) * time.Millisecond, node: rng.Intn(n), id: id})
		}
		for k := 0; k < rng.Intn(n/4+2); k++ {
			ops = append(ops, refOp{at: time.Duration(rng.Intn(60)) * time.Millisecond, kind: 1, node: rng.Intn(n)})
		}
		if rng.Intn(3) == 0 {
			ops = append(ops, refOp{at: time.Duration(rng.Intn(30)) * time.Millisecond, kind: 2, factor: 3})
		}
		sc.rounds = append(sc.rounds, ops)
	}
	return sc
}

// replay drives one model through the scenario and returns its handler
// trace, timed from each round's start: Network's clock stops at its last
// executed event, which can be earlier than the model's. The handler
// re-gossips a derived message from some deliveries, so messages are
// injected mid-propagation as the protocol layer does.
func (sc refScenario) replay(t *testing.T, build func(Config, *sim.Engine, Handler) fabric, arena *Arena) ([]refEvent, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine(sc.seed)
	var trace []refEvent
	var net fabric
	var start time.Duration
	handler := func(node int, msg Message) {
		trace = append(trace, refEvent{node, msg.ID, engine.Now() - start})
		if msg.Kind == KindVote && (int(msg.ID[0])+node)%23 == 0 {
			derived := sha256.Sum256(append(msg.ID[:], byte(node)))
			net.Gossip(node, Message{ID: derived, Kind: KindProposal, Origin: node})
		}
	}
	cfg := sc.cfg
	cfg.Arena = arena
	net = build(cfg, engine, handler)
	for _, i := range sc.noRelay {
		net.SetRelay(i, false)
	}
	for round, ops := range sc.rounds {
		net.SetDelayFactor(sc.factors[round])
		start = engine.Now()
		for _, op := range ops {
			op := op
			engine.ScheduleAt(start+op.at, func() {
				switch op.kind {
				case 0:
					net.Gossip(op.node, Message{ID: op.id, Kind: KindVote, Origin: op.node})
				case 1:
					net.SetOnline(op.node, false)
				case 2:
					net.SetDelayFactor(op.factor)
				}
			})
		}
		if err := engine.Run(0); err != nil {
			t.Fatal(err)
		}
		net.ResetSeen()
		for i := 0; i < cfg.N; i++ {
			net.SetOnline(i, true)
		}
	}
	return trace, engine
}

// TestNetworkMatchesPushEveryHopModel is the differential check for
// push-time duplicate suppression: over randomized topologies, loss,
// relay masks, fault overlays, delay factors and nodes going offline
// mid-round, Network must make the same handler calls (node, message,
// virtual time) as the push-every-hop model, and the same Stats except
// that an in-flight push to a reached node that then goes offline counts
// as Duplicate instead of DroppedOffline.
func TestNetworkMatchesPushEveryHopModel(t *testing.T) {
	arena := &Arena{}
	var suppressed, offlineAfterReach uint64
	for seed := int64(1); seed <= 150; seed++ {
		sc := drawScenario(seed)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			var got *Network
			gotTrace, gotEngine := sc.replay(t, func(cfg Config, e *sim.Engine, h Handler) fabric {
				n, err := New(cfg, e, h)
				if err != nil {
					t.Fatal(err)
				}
				if sc.overlay {
					n.SetOverlay(hashOverlay{uint64(sc.seed)}, 4)
				}
				got = n
				return n
			}, arena)
			var ref *refNetwork
			wantTrace, wantEngine := sc.replay(t, func(cfg Config, e *sim.Engine, h Handler) fabric {
				ref = newRefNetwork(cfg, e, h)
				if sc.overlay {
					ref.overlay = hashOverlay{uint64(sc.seed)}
				}
				return ref
			}, nil)

			if len(gotTrace) != len(wantTrace) {
				t.Fatalf("%d handler calls, reference model made %d", len(gotTrace), len(wantTrace))
			}
			for i := range gotTrace {
				if gotTrace[i] != wantTrace[i] {
					t.Fatalf("handler call %d = %+v, reference model %+v", i, gotTrace[i], wantTrace[i])
				}
			}
			want := ref.stats
			want.Duplicate += ref.offlineAfterReach
			want.DroppedOffline -= ref.offlineAfterReach
			if s := got.Stats(); s != want {
				t.Fatalf("stats %+v, reference model (adjusted by %d offline-after-reach) %+v", s, ref.offlineAfterReach, want)
			}
			g, w := gotEngine.SchedStats().Executed, wantEngine.SchedStats().Executed
			if g > w {
				t.Fatalf("executed %d events, reference model %d", g, w)
			}
			suppressed += w - g
			offlineAfterReach += ref.offlineAfterReach
		})
	}
	// The randomized workloads must actually reach both special paths.
	if suppressed == 0 || offlineAfterReach == 0 {
		t.Fatalf("coverage: %d suppressed events, %d offline-after-reach arrivals; want both > 0", suppressed, offlineAfterReach)
	}
}
