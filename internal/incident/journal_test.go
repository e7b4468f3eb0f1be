package incident

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/session"
)

// crashHelperEnv names the journal path a re-executed test binary
// writes to as the child of TestJournalSurvivesSIGKILL.
const crashHelperEnv = "INCIDENT_JOURNAL_CRASH_HELPER"

func TestMain(m *testing.M) {
	if path := os.Getenv(crashHelperEnv); path != "" {
		crashHelper(path)
		return
	}
	os.Exit(m.Run())
}

// crashHelper files incidents and drives some of them to an outcome,
// printing each ID only after the call that persisted it returned, until
// the parent kills the process.
func crashHelper(path string) {
	st := NewStore(StoreConfig{Path: path})
	for i := 0; i < 1_000_000; i++ {
		inc, err := st.File(Filing{Type: fmt.Sprintf("crash-%d", i%5)})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("filed %s\n", inc.ID)
		switch i % 4 {
		case 1:
			if _, err := st.Transition(inc.ID, StatusResolved, "fixed"); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("resolved %s\n", inc.ID)
		case 2:
			st.Claim(inc.ID)
			st.Start(inc.ID, "s", inc.ID)
			if err := st.Close(inc.ID, Outcome{Status: StatusEscalated, Note: "stuck"}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("escalated %s\n", inc.ID)
		case 3:
			// Left in flight: the journal holds only its filing.
			st.Claim(inc.ID)
			st.Start(inc.ID, "s", inc.ID)
		}
	}
}

// TestJournalSurvivesSIGKILL pins the crash contract with a real kill:
// every filing and outcome the child acknowledged before SIGKILL is in
// the journal, and everything not terminal reloads open.
func TestJournalSurvivesSIGKILL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once the helper is dead; stops it if the test fails early
	filed := map[string]bool{}
	outcome := map[string]Status{}
	sc := bufio.NewScanner(out)
	for lines := 1; sc.Scan(); lines++ {
		verb, id, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch verb {
		case "filed":
			filed[id] = true
		case "resolved", "escalated":
			outcome[id] = Status(verb)
		}
		if lines == 1000 {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("helper was not killed (err %v): %s", err, stderr.String())
	}
	if len(filed) < 300 || len(outcome) < 150 {
		t.Fatalf("helper acknowledged %d filings, %d outcomes before the kill", len(filed), len(outcome))
	}

	re := NewStore(StoreConfig{Path: path})
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	for id := range filed {
		if _, err := re.Get(id); err != nil {
			t.Errorf("acknowledged filing %s lost: %v", id, err)
		}
	}
	for id, want := range outcome {
		if got, err := re.Get(id); err != nil || got.Status != want {
			t.Errorf("acknowledged outcome %s: got %s (%v), want %s", id, got.Status, err, want)
		}
	}
	for _, inc := range re.List("") {
		if !inc.Status.Terminal() && (inc.Status != StatusOpen || inc.Session != "" || inc.Leader != "") {
			t.Errorf("%s reloaded as %s (session %q, leader %q), want open", inc.ID, inc.Status, inc.Session, inc.Leader)
		}
	}
}

// captureLog sends the standard logger's output to a buffer until the
// test ends.
func captureLog(t *testing.T) *bytes.Buffer {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return &buf
}

// journalLines splits the journal into its records, failing on any
// line that is not one complete record.
func journalLines(t *testing.T, path string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("journal does not end in a newline: %q", data[max(0, len(data)-40):])
	}
	var recs []journalRecord
	for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Incident == nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestJournalFilingCostFlat pins the per-filing write: a File appends
// exactly one record to the same file, whatever the store holds.
func TestJournalFilingCostFlat(t *testing.T) {
	var added [][]byte
	for _, n := range []int{100, 10_000} {
		path := filepath.Join(t.TempDir(), "incidents.json")
		st := NewStore(StoreConfig{Clock: constClock(), Path: path})
		for i := 0; i < n; i++ {
			if _, err := st.File(Filing{Type: "bgp-leak"}); err != nil {
				t.Fatal(err)
			}
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fiBefore, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := st.File(Filing{Type: "bgp-leak"})
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fiAfter, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fiBefore, fiAfter) || !bytes.HasPrefix(after, before) {
			t.Fatalf("at %d incidents, File rewrote the store instead of appending", n)
		}
		add := after[len(before):]
		var rec journalRecord
		if bytes.Count(add, []byte{'\n'}) != 1 || json.Unmarshal(add, &rec) != nil || rec.Incident == nil || rec.Incident.ID != inc.ID {
			t.Fatalf("at %d incidents, File appended %q, want one record of %s", n, add, inc.ID)
		}
		added = append(added, add)
	}
	// The two records differ only in the counters: seq and filed each
	// gain two digits (101 → 10001).
	if d := len(added[1]) - len(added[0]); d != 4 {
		t.Errorf("filing at 10k incidents appends %d bytes, at 100 %d: want equal but for 4 counter digits",
			len(added[1]), len(added[0]))
	}
}

// TestJournalTornTail simulates a crash mid-append: Load drops the torn
// half-record, says so, and cuts it off, so the next append is readable.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := newTestStore(t, path)
	a, _ := st.File(Filing{Type: "a"})
	b, _ := st.File(Filing{Type: "b"})
	if _, err := st.Transition(a.ID, StatusResolved, "fixed"); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte{'\n'})
	torn := lines[0][:len(lines[0])/2]
	if err := os.WriteFile(path, append(good, torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	logged := captureLog(t)
	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("dropped a torn last record (%d bytes)", len(torn)); strings.Count(logged.String(), "\n") != 1 || !strings.Contains(logged.String(), want) {
		t.Errorf("log = %q, want one line with %q", logged.String(), want)
	}
	c, err := re.File(Filing{Type: "c"})
	if err != nil {
		t.Fatal(err)
	}

	fresh := newTestStore(t, path)
	if err := fresh.Load(); err != nil {
		t.Fatalf("load after torn tail and one more filing: %v", err)
	}
	for id, want := range map[string]Status{a.ID: StatusResolved, b.ID: StatusOpen, c.ID: StatusOpen} {
		if got, err := fresh.Get(id); err != nil || got.Status != want {
			t.Errorf("%s: got %s (%v), want %s", id, got.Status, err, want)
		}
	}
	if got, _ := fresh.Get(a.ID); got.Resolution != "fixed" {
		t.Errorf("resolution = %q", got.Resolution)
	}
}

// TestJournalCorruptRecordIsAnError: only a torn last record may be
// dropped; a damaged record with records after it fails Load and leaves
// the file alone.
func TestJournalCorruptRecordIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := newTestStore(t, path)
	st.File(Filing{Type: "a"})
	st.File(Filing{Type: "b"})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = '#'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := newTestStore(t, path).Load(); err == nil {
		t.Fatal("corrupt journal loaded")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Error("failed Load rewrote the journal")
	}
}

// TestJournalPersistErrors: a failed append is counted and shows in
// /v1/stats and /v1/metrics, while the filing still succeeds in memory.
func TestJournalPersistErrors(t *testing.T) {
	logged := captureLog(t)
	st := newTestStore(t, filepath.Join(t.TempDir(), "missing", "incidents.json"))
	srv := httptest.NewServer(session.Handler(newTestManager(t), &API{Store: st}))
	t.Cleanup(srv.Close)

	code, body := doJSON(t, "POST", srv.URL+"/v1/incidents", Filing{Type: "bgp-leak"})
	if code != http.StatusCreated {
		t.Fatalf("file: %d %s", code, body)
	}
	inc := decode[Incident](t, body)
	if _, err := st.Get(inc.ID); err != nil {
		t.Errorf("filing lost in memory: %v", err)
	}
	if n := st.Stats().PersistErrors; n != 1 {
		t.Errorf("persist_errors = %d, want 1", n)
	}
	if !strings.Contains(logged.String(), "incident: persist "+inc.ID) {
		t.Errorf("failure not logged: %q", logged.String())
	}

	_, body = doJSON(t, "GET", srv.URL+"/v1/stats", nil)
	var stats struct {
		Incidents map[string]json.RawMessage `json:"incidents"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if got := string(stats.Incidents["persist_errors"]); got != "1" {
		t.Errorf("/v1/stats incidents.persist_errors = %q, want 1", got)
	}
	if _, metrics := doJSON(t, "GET", srv.URL+"/v1/metrics", nil); !strings.Contains(string(metrics), "repro_stats_incidents_persist_errors 1\n") {
		t.Errorf("/v1/metrics lacks repro_stats_incidents_persist_errors 1")
	}
}

// TestJournalConcurrentLifecycle runs every store operation at once on
// a persisted store (run under -race); a Load afterwards reproduces
// every terminal record byte-for-byte, in filing order.
func TestJournalConcurrentLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := newTestStore(t, path)
	const filers, perFiler, workers = 4, 50, 4
	var filing, wg sync.WaitGroup
	var released sync.Map
	var filed atomic.Int64
	for f := 0; f < filers; f++ {
		filing.Add(1)
		go func(f int) {
			defer filing.Done()
			for i := 0; i < perFiler; i++ {
				if _, err := st.File(Filing{Type: fmt.Sprintf("t%d", (f+i)%3)}); err != nil {
					t.Error(err)
				}
				filed.Add(1)
			}
		}(f)
	}
	filersDone := make(chan struct{})
	go func() {
		filing.Wait()
		close(filersDone)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				q := st.OpenQueue(3)
				if len(q) == 0 {
					select {
					case <-filersDone:
						return
					default:
						continue
					}
				}
				for _, inc := range q {
					if !st.Claim(inc.ID) {
						continue
					}
					st.AppendEvent(inc.ID, "note", fmt.Sprintf("worker %d", w))
					if err := st.Start(inc.ID, "s", inc.ID); err != nil {
						continue // a manual transition got there first
					}
					st.AppendEvent(inc.ID, "note", "investigating")
					if _, again := released.LoadOrStore(inc.ID, true); !again {
						st.Release(inc.ID)
						continue
					}
					out := Outcome{Status: StatusResolved, Resolution: "fixed", Confidence: 8, Turns: n % 4}
					if n%2 == 1 {
						out = Outcome{Status: StatusEscalated, Note: "stuck"}
					}
					st.Close(inc.ID, out)
				}
			}
		}(w)
	}
	// A manual operator and a stray event source race the workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*filers*perFiler; i++ {
			id := fmt.Sprintf("inc-%06d", i%(filers*perFiler)+1)
			st.AppendEvent(id, "note", "operator looked")
			if i%7 == 0 {
				st.Transition(id, StatusEscalated, "paged")
			}
		}
	}()
	wg.Wait()

	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	orig, got := st.List(""), re.List("")
	if len(got) != len(orig) || int64(len(orig)) != filed.Load() {
		t.Fatalf("reloaded %d incidents, store has %d, filed %d", len(got), len(orig), filed.Load())
	}
	for i, sum := range orig {
		if got[i].ID != sum.ID {
			t.Fatalf("reloaded order differs at %d: %s vs %s", i, got[i].ID, sum.ID)
		}
		want, _ := st.Get(sum.ID)
		have, _ := re.Get(sum.ID)
		if !want.Status.Terminal() {
			if have.Status != StatusOpen {
				t.Errorf("non-terminal %s reloaded as %s", sum.ID, have.Status)
			}
			continue
		}
		wj, _ := json.Marshal(want)
		hj, _ := json.Marshal(have)
		if !bytes.Equal(wj, hj) {
			t.Errorf("terminal %s differs after reload:\n got %s\nwant %s", sum.ID, hj, wj)
		}
	}
	if s, r := st.Stats(), re.Stats(); s.Filed != r.Filed || s.Reopened != r.Reopened || r.Reopened == 0 {
		t.Errorf("counters: store %+v, reloaded %+v", s, r)
	}
}

// TestJournalLegacyStoreLoads: a whole-store file in the old shape
// still loads, and Load converts it into the journal.
func TestJournalLegacyStoreLoads(t *testing.T) {
	src := newTestStore(t, "")
	a, _ := src.File(Filing{Type: "a", Severity: SevCritical})
	b, _ := src.File(Filing{Type: "b"})
	src.Claim(b.ID)
	src.Start(b.ID, "s", b.ID)
	src.Release(b.ID)
	src.Transition(a.ID, StatusResolved, "root cause")
	inflight, _ := src.File(Filing{Type: "c"})
	src.Claim(inflight.ID)
	src.Start(inflight.ID, "s", inflight.ID)

	legacy := struct {
		Seq       int64      `json:"seq"`
		Filed     int64      `json:"filed"`
		Reopened  int64      `json:"reopened"`
		Incidents []Incident `json:"incidents"`
	}{Seq: 3, Filed: 3, Reopened: 1}
	for _, id := range []string{a.ID, b.ID, inflight.ID} {
		inc, _ := src.Get(id)
		legacy.Incidents = append(legacy.Incidents, inc)
	}
	data, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "incidents.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	for _, want := range legacy.Incidents {
		if want.ID == inflight.ID {
			want.Status, want.Session, want.Leader = StatusOpen, "", ""
		}
		got, err := re.Get(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Errorf("legacy record %s:\n got %s\nwant %s", want.ID, gj, wj)
		}
	}
	if s := re.Stats(); s.Filed != 3 || s.Reopened != 1 {
		t.Errorf("legacy counters = %+v", s)
	}
	if recs := journalLines(t, path); len(recs) != 3 {
		t.Errorf("legacy store compacted to %d records, want 3", len(recs))
	}
	if next, _ := re.File(Filing{Type: "d"}); next.ID != "inc-000004" {
		t.Errorf("post-restore id = %s, want inc-000004", next.ID)
	}
}

// TestJournalCompactsOnLoad: after Load the journal holds one record per
// live incident, carrying its current state, and a second Load leaves
// it byte-identical.
func TestJournalCompactsOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := newTestStore(t, path)
	var ids []string
	for _, typ := range []string{"a", "b", "c"} {
		inc, _ := st.File(Filing{Type: typ})
		ids = append(ids, inc.ID)
	}
	st.Transition(ids[0], StatusResolved, "fixed")
	st.Claim(ids[1])
	st.Start(ids[1], "s", ids[1])
	st.Release(ids[1])
	st.Transition(ids[1], StatusEscalated, "paged")
	if n := len(journalLines(t, path)); n != 6 {
		t.Fatalf("journal has %d records before Load, want 6", n)
	}

	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	recs := journalLines(t, path)
	if len(recs) != len(ids) {
		t.Fatalf("compacted journal has %d records, want %d", len(recs), len(ids))
	}
	for i, rec := range recs {
		want, _ := st.Get(ids[i])
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(rec.Incident)
		if !bytes.Equal(wj, gj) || rec.Seq != 3 || rec.Filed != 3 || rec.Reopened != 1 {
			t.Errorf("record %d = %s (seq %d, filed %d, reopened %d), want %s", i, gj, rec.Seq, rec.Filed, rec.Reopened, wj)
		}
	}
	compacted, _ := os.ReadFile(path)
	if err := newTestStore(t, path).Load(); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, compacted) {
		t.Error("second Load changed the compacted journal")
	}
}

// TestJournalSimBatchRoundTrip drains the simulator batch on a
// persisted store; a fresh Load reproduces every record byte-for-byte.
func TestJournalSimBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := NewStore(StoreConfig{Clock: constClock(), Path: path})
	if _, err := FileAll(st, SimBatch(42)); err != nil {
		t.Fatal(err)
	}
	proc := NewProcessor(st, newTestManager(t), ProcessorConfig{Workers: 4, Session: session.Config{Seed: 42}})
	if err := proc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Resolved+s.Escalated != s.Filed {
		t.Fatalf("drain left non-terminal work: %+v", s)
	}
	re := NewStore(StoreConfig{Clock: constClock(), Path: path})
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	if want, got := records(t, st), records(t, re); !bytes.Equal(want, got) {
		t.Errorf("reloaded records differ from the drained store")
	}
}

// BenchmarkStoreFile measures one persisted filing with 100 and 10k
// incidents already in the store.
func BenchmarkStoreFile(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("incidents=%d", n), func(b *testing.B) {
			st := NewStore(StoreConfig{Path: filepath.Join(b.TempDir(), "incidents.json")})
			f := Filing{Type: "bgp-route-withdrawal", Title: "2021 Facebook outage"}
			for i := 0; i < n; i++ {
				if _, err := st.File(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.File(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
