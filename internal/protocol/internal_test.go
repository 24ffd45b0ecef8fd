package protocol

import (
	"math"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
)

func TestStepTallyDeduplicatesVoters(t *testing.T) {
	tally := newStepTally()
	h := ledger.Hash{1}
	tally.add(7, h, 5)
	tally.add(7, h, 5) // same voter again: ignored
	tally.add(8, h, 3)
	if got := tally.weightFor(h); got != 8 {
		t.Errorf("weight = %v, want 8", got)
	}
}

func TestStepTallyLeader(t *testing.T) {
	tally := newStepTally()
	a, b := ledger.Hash{1}, ledger.Hash{2}
	tally.add(1, a, 5)
	tally.add(2, b, 9)
	leader, w := tally.leader()
	if leader != b || w != 9 {
		t.Errorf("leader = %v (%v), want b (9)", leader, w)
	}
	empty := newStepTally()
	if _, w := empty.leader(); w != 0 {
		t.Errorf("empty tally leader weight = %v", w)
	}
}

func TestStepTallyLeaderTieBreak(t *testing.T) {
	tally := newStepTally()
	a, b := ledger.Hash{1}, ledger.Hash{2}
	tally.add(1, b, 5)
	tally.add(2, a, 5)
	leader, _ := tally.leader()
	// Ties break towards the lexicographically smaller hash for
	// determinism.
	if leader != a {
		t.Errorf("tie broke to %v, want the smaller hash", leader)
	}
}

func TestHashLess(t *testing.T) {
	a, b := ledger.Hash{1}, ledger.Hash{2}
	if !hashLess(a, b) || hashLess(b, a) || hashLess(a, a) {
		t.Error("hashLess ordering broken")
	}
}

func TestProposalAndVoteIDsDistinct(t *testing.T) {
	ids := map[[32]byte]string{}
	record := func(id [32]byte, label string) {
		if prev, dup := ids[id]; dup {
			t.Fatalf("id collision between %s and %s", prev, label)
		}
		ids[id] = label
	}
	record(proposalID(1, 0), "proposal r1 n0")
	record(proposalID(1, 1), "proposal r1 n1")
	record(proposalID(2, 0), "proposal r2 n0")
	record(voteID(1, 1, false, 0), "vote r1 s1 n0")
	record(voteID(1, 1, false, 1), "vote r1 s1 n1")
	record(voteID(1, 2, false, 0), "vote r1 s2 n0")
	record(voteID(2, 1, false, 0), "vote r2 s1 n0")
	record(voteID(1, 1, true, 0), "final vote r1 s1 n0")
}

func TestNodeObserveProposalKeepsHighestPriority(t *testing.T) {
	nd := &node{}
	nd.beginRound(1)
	low := &proposalPayload{
		BlockHash:  ledger.Hash{1},
		Credential: sortition.Result{Priority: sortition.Priority{0: 1}},
		Proposer:   1,
	}
	high := &proposalPayload{
		BlockHash:  ledger.Hash{2},
		Credential: sortition.Result{Priority: sortition.Priority{0: 9}},
		Proposer:   2,
	}
	nd.observeProposal(low)
	nd.observeProposal(high)
	nd.observeProposal(low) // lower priority again: must not displace
	if nd.bestProposal.Proposer != 2 {
		t.Errorf("best proposal from %d, want 2", nd.bestProposal.Proposer)
	}
	if len(nd.blocks) != 2 {
		t.Errorf("retained %d block bodies, want 2", len(nd.blocks))
	}
}

func TestNodeObserveVoteRouting(t *testing.T) {
	nd := &node{}
	nd.beginRound(3)
	nd.observeVote(&votePayload{
		Round: 3, Step: 2, Voter: 4, Value: ledger.Hash{7},
		Credential: sortition.Result{SubUsers: 6},
	})
	nd.observeVote(&votePayload{
		Round: 3, Final: true, Voter: 5, Value: ledger.Hash{7},
		Credential: sortition.Result{SubUsers: 2},
	})
	if got := nd.tally(2).weightFor(ledger.Hash{7}); got != 6 {
		t.Errorf("step tally weight = %v, want 6", got)
	}
	if got := nd.finalTally.weightFor(ledger.Hash{7}); got != 2 {
		t.Errorf("final tally weight = %v, want 2", got)
	}
}

func TestRemovePending(t *testing.T) {
	r := &Runner{}
	r.pending = []ledger.Transaction{
		{Nonce: 1}, {Nonce: 2}, {Nonce: 3},
	}
	r.removePending([]ledger.Transaction{{Nonce: 2}})
	if len(r.pending) != 2 || r.pending[0].Nonce != 1 || r.pending[1].Nonce != 3 {
		t.Errorf("pending after removal: %+v", r.pending)
	}
	r.removePending(nil) // no-op
	if len(r.pending) != 2 {
		t.Error("nil removal changed pending")
	}
}

func TestResolveTau(t *testing.T) {
	if got := resolveTau(0.35, 1000); got != 350 {
		t.Errorf("fractional tau = %v, want 350", got)
	}
	if got := resolveTau(26, 1000); got != 26 {
		t.Errorf("absolute tau = %v, want 26", got)
	}
}

func TestSortRoleStakes(t *testing.T) {
	rs := []RoleStake{{ID: 3}, {ID: 1}, {ID: 2}}
	sortRoleStakes(rs)
	for i, want := range []int{1, 2, 3} {
		if rs[i].ID != want {
			t.Fatalf("sorted order %v", rs)
		}
	}
}

// TestVoterSetMatchesMap checks the tally's voter set against the map it
// replaced over randomized insert/reset mixes, through table growth.
func TestVoterSetMatchesMap(t *testing.T) {
	var s voterSet
	ref := make(map[int]struct{})
	state := uint64(0x9e3779b97f4a7c15)
	for op := 0; op < 50_000; op++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if state%1000 == 0 {
			s.reset()
			clear(ref)
			continue
		}
		voter := int(state>>20) % 5000
		_, dup := ref[voter]
		ref[voter] = struct{}{}
		if got := s.insert(voter); got != !dup {
			t.Fatalf("op %d: insert(%d) = %v, map says duplicate=%v", op, voter, got, dup)
		}
	}
	if s.n != len(ref) {
		t.Fatalf("live count %d, map holds %d", s.n, len(ref))
	}
}

func TestVoterSetEpochWraparound(t *testing.T) {
	var s voterSet
	s.insert(3)
	s.epoch = math.MaxUint32
	if !s.insert(4) {
		t.Fatal("insert at max epoch reported duplicate")
	}
	s.reset() // wraps: stale slots must not alias the restarted epoch
	if s.epoch == 0 || !s.insert(4) || !s.insert(3) {
		t.Fatal("voters from before the wraparound survived the reset")
	}
}

// TestNodeTalliesResetAcrossRounds checks that beginRound empties every
// step tally, voters included, while keeping the tallies themselves.
func TestNodeTalliesResetAcrossRounds(t *testing.T) {
	nd := &node{}
	nd.beginRound(1)
	vote := &votePayload{Round: 1, Step: 4, Voter: 9, Value: ledger.Hash{2}, Credential: sortition.Result{SubUsers: 3}}
	nd.observeVote(vote)
	kept := nd.tally(4)
	nd.beginRound(2)
	if nd.tally(4) != kept {
		t.Fatal("beginRound dropped the step tally instead of resetting it")
	}
	if w := nd.tally(4).weightFor(ledger.Hash{2}); w != 0 {
		t.Fatalf("weight %v survived the round reset", w)
	}
	vote.Round = 2
	nd.observeVote(vote)
	if w := nd.tally(4).weightFor(ledger.Hash{2}); w != 3 {
		t.Fatalf("voter from the previous round still deduplicated: weight %v, want 3", w)
	}
}
