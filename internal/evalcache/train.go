package evalcache

import (
	"container/list"
	"context"
	"slices"
	"sync"

	"repro/internal/agent"
	"repro/internal/memory"
	"repro/internal/stream"
)

// trainMemoCap bounds the training memo. An entry is one training's
// events (a few KB) and report; its segments are interned and resident
// anyway. The cap covers every distinct role a deployment trains — the
// incident pipeline's storm titles plus Bob — and the eval harness's
// distinct training setups, with room to spare.
const trainMemoCap = 128

// Training is one memoized role training: the step events the agent's
// observer received while it trained, the sealed and interned segments
// it left in memory, and its report.
type Training struct {
	Events   []stream.Event
	Segments []*memory.Segment
	Report   agent.TrainReport
}

// clone copies the report's goal list, so that no caller can reach the
// memo's copy. Events and segments are only ever read.
func (t Training) clone() Training {
	t.Report.Goals = slices.Clone(t.Report.Goals)
	return t
}

// trainEntry is one memo key: in flight until done closes, then stored
// (elem set) when the training succeeded, or gone when it did not.
type trainEntry struct {
	done chan struct{}
	t    Training
	elem *list.Element // in trainLRU; nil while in flight
}

var (
	trainMu     sync.Mutex
	trainByKey  = map[string]*trainEntry{}
	trainLRU    = list.New() // stored entries' keys, most recent first
	trainHits   int64
	trainMisses int64
)

// TrainOnce returns the training memoized under key, calling train to
// produce it on a miss. A training is a pure function of its inputs
// when the model and the web are deterministic, so sessions and the
// eval harness key it on a fingerprint of those inputs and replay a hit
// instead of rerunning the Auto-GPT loop (see TrainAgent). hit reports
// whether the result came from the memo; on a hit the caller must apply
// it itself.
//
// Concurrent callers with one key train once: the first runs train, the
// rest wait for it (honoring ctx) and then hit. Only a training that
// returns no error is stored, so a failed or cancelled one leaves the
// key free and its waiters train for real. An empty key bypasses the
// memo: train runs and counts as a miss.
func TrainOnce(ctx context.Context, key string, train func() (Training, error)) (t Training, hit bool, err error) {
	if key == "" {
		trainMu.Lock()
		trainMisses++
		trainMu.Unlock()
		t, err = train()
		return t, false, err
	}
	for {
		trainMu.Lock()
		e, ok := trainByKey[key]
		if !ok {
			e = &trainEntry{done: make(chan struct{})}
			trainByKey[key] = e
			trainMisses++
			trainMu.Unlock()
			return trainOwner(key, e, train)
		}
		if e.elem != nil {
			trainLRU.MoveToFront(e.elem)
			trainHits++
			t = e.t.clone()
			trainMu.Unlock()
			return t, true, nil
		}
		trainMu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Training{}, false, ctx.Err()
		}
	}
}

// TrainAgent trains a through the memo under key and returns its report.
// The caller vouches that key fingerprints every input of the training
// and that a's memory is empty; an empty key trains for real without
// recording. On a miss a runs its role goals while a wrapper around its
// observer records the events (when key is set); the segment training
// sealed is then interned, so every agent trained over the same content
// shares one resident copy. On a hit the recorded events are re-emitted
// through a.Observer, the stored segments are attached and routed
// through the intern table — intern hits and segment refs count exactly
// as a fresh training's — and the stored report is returned.
func TrainAgent(ctx context.Context, key string, a *agent.Agent) (agent.TrainReport, error) {
	t, hit, err := TrainOnce(ctx, key, func() (Training, error) {
		var evs []stream.Event
		if key != "" {
			obs := a.Observer
			a.Observer = func(e stream.Event) {
				evs = append(evs, e)
				obs.Emit(e)
			}
			defer func() { a.Observer = obs }()
		}
		rep, err := a.Train(ctx)
		if err != nil {
			return Training{Report: rep}, err
		}
		a.Memory.InternSegments(InternSegment)
		return Training{Events: evs, Segments: a.Memory.Segments(), Report: rep}, nil
	})
	if hit {
		for _, e := range t.Events {
			a.Observer.Emit(e)
		}
		a.Memory.RestoreParts(t.Segments, nil)
		a.Memory.InternSegments(InternSegment)
	}
	return t.Report, err
}

// trainOwner runs the training for a fresh key and stores it on
// success. The deferred settle runs even if train panics, so waiters
// are never stranded.
func trainOwner(key string, e *trainEntry, train func() (Training, error)) (t Training, hit bool, err error) {
	stored := false
	defer func() {
		trainMu.Lock()
		if trainByKey[key] == e { // not dropped by a reset meanwhile
			if stored {
				e.t = t.clone()
				e.elem = trainLRU.PushFront(key)
				for trainLRU.Len() > trainMemoCap {
					delete(trainByKey, trainLRU.Remove(trainLRU.Back()).(string))
				}
			} else {
				delete(trainByKey, key)
			}
		}
		trainMu.Unlock()
		close(e.done)
	}()
	t, err = train()
	stored = err == nil
	return t, false, err
}
