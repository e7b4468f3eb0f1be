package evalcache

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/autogpt"
)

// trainKeyed runs TrainOnce on key with a training that reports one
// goal, returning whether it hit.
func trainKeyed(t *testing.T, key string) bool {
	t.Helper()
	_, hit, err := TrainOnce(context.Background(), key, func() (Training, error) {
		return Training{Report: agent.TrainReport{Goals: []autogpt.GoalReport{{Goal: key}}}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

// TestTrainMemoBounded pins the memo's cap and its LRU order: past the
// cap the least recently used training goes, a hit refreshes an entry.
func TestTrainMemoBounded(t *testing.T) {
	ResetSegmentCacheForTest()
	t.Cleanup(ResetSegmentCacheForTest)
	if trainMemoCap != 128 {
		t.Fatalf("trainMemoCap = %d, want 128", trainMemoCap)
	}
	key := func(i int) string { return fmt.Sprintf("role-%d", i) }
	for i := 0; i < trainMemoCap; i++ {
		trainKeyed(t, key(i))
	}
	if !trainKeyed(t, key(0)) { // refresh the oldest
		t.Fatal("key 0 missed before the memo was full")
	}
	for i := trainMemoCap; i < trainMemoCap+10; i++ {
		trainKeyed(t, key(i))
	}
	st := SegmentStats()
	if st.TrainEntries != trainMemoCap {
		t.Errorf("entries = %d, want the cap %d", st.TrainEntries, trainMemoCap)
	}
	if st.TrainHits != 1 || st.TrainMisses != trainMemoCap+10 {
		t.Errorf("hits/misses = %d/%d, want 1/%d", st.TrainHits, st.TrainMisses, trainMemoCap+10)
	}
	if !trainKeyed(t, key(0)) {
		t.Error("the refreshed key was evicted")
	}
	if trainKeyed(t, key(1)) {
		t.Error("the least recently used key survived past the cap")
	}
}

// TestTrainOnceStoresOnlySuccess: a failed training stores nothing, an
// empty key never stores, and a caller cannot reach the memo's report.
func TestTrainOnceStoresOnlySuccess(t *testing.T) {
	ResetSegmentCacheForTest()
	t.Cleanup(ResetSegmentCacheForTest)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := TrainOnce(ctx, "k", func() (Training, error) { return Training{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if trainKeyed(t, "") || trainKeyed(t, "") {
		t.Error("the empty key hit")
	}
	if trainKeyed(t, "k") {
		t.Error("a failed training was stored")
	}
	got, hit, _ := TrainOnce(ctx, "k", nil)
	if !hit {
		t.Fatal("second training of k missed")
	}
	got.Report.Goals[0].Goal = "mutated"
	if again, _, _ := TrainOnce(ctx, "k", nil); again.Report.Goals[0].Goal != "k" {
		t.Errorf("a caller mutated the memo: %+v", again.Report)
	}
	if st := SegmentStats(); st.TrainEntries != 1 || st.TrainHits != 2 || st.TrainMisses != 4 {
		t.Errorf("stats %+v", st)
	}
}
