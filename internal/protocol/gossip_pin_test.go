package protocol

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/network"
)

// TestDenseRoundCountsPinned pins the gossip counters and round reports
// of one fixed 100-node run with 15% defection to the values the
// push-every-hop network produced, so skipping pushes that can only be
// duplicates provably changes no count and no outcome. It also checks
// that the skipping happens: each round executes fewer scheduler events
// than it pushes messages.
func TestDenseRoundCountsPinned(t *testing.T) {
	behaviors := behaviorsOf(100, Honest)
	for i := 0; i < 15; i++ {
		behaviors[i*100/15] = Selfish
	}
	r := newTestRunner(t, 100, behaviors, 11)
	var reports []string
	var prev network.Stats
	prevExec := r.engine.SchedStats().Executed
	for round := 0; round < 4; round++ {
		rep := r.RunRounds(1)[0]
		outcomes := make([]byte, len(rep.Outcomes))
		for i, o := range rep.Outcomes {
			outcomes[i] = byte(o)
		}
		reports = append(reports, fmt.Sprintf("round %d final/tentative/none %d/%d/%d canonical %x empty %v decided %v degraded %v desynced %d outcomes %x",
			rep.Round, rep.FinalCount, rep.TentativeCount, rep.NoneCount, rep.CanonicalHash[:8],
			rep.CanonicalEmpty, rep.Decided, rep.Degraded, rep.Desynced, sha256.Sum256(outcomes)))
		stats := r.Network().Stats()
		exec := r.engine.SchedStats().Executed
		if sent := stats.Sent - prev.Sent; exec-prevExec >= sent {
			t.Errorf("round %d executed %d events for %d pushes; duplicate pushes were scheduled", rep.Round, exec-prevExec, sent)
		}
		prev, prevExec = stats, exec
	}

	// Recorded from the push-every-hop network (every push scheduled).
	wantStats := network.Stats{Sent: 692650, Delivered: 204454, Duplicate: 490323, DroppedLoss: 173685}
	wantReports := []string{
		"round 1 final/tentative/none 77/1/22 canonical 7516e8ff7c7efe49 empty false decided true degraded false desynced 3 outcomes 84f97b80a365728375c6318549afe9b2551e01457f813bb5b6ac2c98d6a9382e",
		"round 2 final/tentative/none 77/2/21 canonical 7bed87f49cc9d644 empty false decided true degraded false desynced 4 outcomes 37aeef7830422971201e04270a7763e2e6d549e70a2b349b999ee811563a9f9a",
		"round 3 final/tentative/none 75/0/25 canonical 238928dd8b2f7164 empty false decided true degraded false desynced 5 outcomes 3645ed0c624b9f93004648cc79854f54dc9108120a3bbd4b27b5a23794cf661e",
		"round 4 final/tentative/none 0/79/21 canonical e960ec681b2b6c43 empty true decided true degraded true desynced 6 outcomes 7a8f6288c6d974023a1cc886431601aa1092b6840973ab245915c6f63c1f7d9a",
	}
	if prev != wantStats {
		t.Errorf("network stats %#v, want %#v", prev, wantStats)
	}
	for i := range reports {
		if reports[i] != wantReports[i] {
			t.Errorf("report %d:\n got %q\nwant %q", i, reports[i], wantReports[i])
		}
	}
}
