package eval

import (
	"context"
	"testing"

	"repro/internal/evalcache"
	"repro/internal/session"
)

// TestTrainedBobSharesSessionMemo: the eval harness and the session
// runtime train through one memo, so a session's training of Bob is
// what TrainedBob replays, and two setups that differ only in
// investigation knobs share one training.
func TestTrainedBobSharesSessionMemo(t *testing.T) {
	ctx := context.Background()
	evalcache.ResetSegmentCacheForTest()
	t.Cleanup(evalcache.ResetSegmentCacheForTest)
	m := session.NewManager(session.ManagerConfig{})
	defer m.Shutdown()
	s, err := m.Create("bob", session.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	setup := DefaultSetup()
	bob, _, err := TrainedBob(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	setup.AgentConfig.ConfidenceThreshold = 9
	setup.Workers = 1
	if _, _, err := TrainedBob(ctx, setup); err != nil {
		t.Fatal(err)
	}
	st := evalcache.SegmentStats()
	if st.TrainMisses != 1 || st.TrainHits != 2 || st.TrainEntries != 1 {
		t.Errorf("train misses/hits/entries = %d/%d/%d, want 1/2/1", st.TrainMisses, st.TrainHits, st.TrainEntries)
	}
	if bob.Memory.Len() != s.MemoryLen() {
		t.Errorf("TrainedBob holds %d items, the session %d", bob.Memory.Len(), s.MemoryLen())
	}
}
