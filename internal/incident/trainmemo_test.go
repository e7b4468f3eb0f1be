package incident

import (
	"testing"

	"repro/internal/evalcache"
	"repro/internal/session"
)

// TestProcessorTrainMemoColdWarm drains SimBatch(42) with the training
// memo cold and then warm at every worker count: leaders that replay a
// memoized training must leave byte-identical incident records, event
// logs included, to leaders that trained for real.
func TestProcessorTrainMemoColdWarm(t *testing.T) {
	evalcache.ResetSegmentCacheForTest()
	t.Cleanup(evalcache.ResetSegmentCacheForTest)
	batch := SimBatch(42)
	var base []byte
	for _, workers := range []int{1, 2, 8} {
		for _, warm := range []bool{false, true} {
			if !warm {
				evalcache.ResetSegmentCacheForTest()
			}
			before := evalcache.SegmentStats()
			st, _ := drainBatch(t, batch, ProcessorConfig{Workers: workers, Session: session.Config{Seed: 42}})
			after := evalcache.SegmentStats()
			if warm && after.TrainMisses != before.TrainMisses {
				t.Errorf("workers=%d warm drain trained %d leaders for real", workers, after.TrainMisses-before.TrainMisses)
			}
			if !warm && after.TrainMisses == 0 {
				t.Errorf("workers=%d cold drain never trained", workers)
			}
			got := records(t, st)
			if base == nil {
				base = got
				continue
			}
			if string(got) != string(base) {
				t.Fatalf("workers=%d warm=%v produced different records", workers, warm)
			}
		}
	}
}
