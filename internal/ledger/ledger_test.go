package ledger

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chargeEvents builds a simple history: one dataset plus n charges.
func chargeEvents(n int) []Event {
	evs := []Event{{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1}}
	for i := 0; i < n; i++ {
		evs = append(evs, Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1})
	}
	return evs
}

func appendAll(t *testing.T, l *Ledger, evs []Event) {
	t.Helper()
	for i := range evs {
		if err := l.Append(evs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(5))
	if err := l.Append(Event{Type: EventRollback, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Type: EventRefusal, Dataset: "d", Analyst: "bob",
		Query: "count", Epsilon: 5, Outcome: "refused"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Err != nil {
		t.Fatalf("recovery failed: %v", rec.Err)
	}
	// dataset_created + 5 charges + rollback + refusal.
	if rec.Events != 8 {
		t.Fatalf("replayed %d events, want 8", rec.Events)
	}
	st := l2.CopyState()
	ds := st.Datasets["d"]
	if ds == nil {
		t.Fatal("dataset not recovered")
	}
	// 5 charges of 0.1 minus one rollback, summed in event order —
	// bit-identical to the live accumulation.
	want := 0.0
	for i := 0; i < 5; i++ {
		want += 0.1
	}
	want -= 0.1
	if ds.Spent["alice"] != want {
		t.Fatalf("alice spent %v, want %v", ds.Spent["alice"], want)
	}
	if ds.TotalSpent != want {
		t.Fatalf("total spent %v, want %v", ds.TotalSpent, want)
	}
	if len(st.Audit) != 1 || st.Audit[0].Outcome != "refused" {
		t.Fatalf("audit trail not recovered: %+v", st.Audit)
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(35))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// 36 events with snapshots every 10: old segments must be gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wals, snaps int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".wal"):
			wals++
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		}
	}
	if wals != 1 {
		t.Fatalf("compaction left %d WAL segments, want 1", wals)
	}
	if snaps != 1 {
		t.Fatalf("compaction left %d snapshots, want 1", snaps)
	}

	l2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); rec.Err != nil {
		t.Fatalf("recovery failed: %v", rec.Err)
	} else if rec.SnapshotSeq == 0 {
		t.Fatal("recovery did not use a snapshot")
	}
	ds := l2.CopyState().Datasets["d"]
	want := 0.0
	for i := 0; i < 35; i++ {
		want += 0.1
	}
	if ds.Spent["alice"] != want {
		t.Fatalf("alice spent %v across snapshot boundary, want %v", ds.Spent["alice"], want)
	}
	if l2.CopyState().Seq != 36 {
		t.Fatalf("seq %d, want 36", l2.CopyState().Seq)
	}

	// Appends continue after the recovered snapshot.
	if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if l2.CopyState().Seq != 37 {
		t.Fatalf("seq %d after append, want 37", l2.CopyState().Seq)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Fsync: policy, FsyncInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, chargeEvents(3))
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := l2.CopyState().Seq; got != 4 {
				t.Fatalf("recovered seq %d, want 4", got)
			}
		})
	}
}

func TestCorruptHistoryFreezes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(10))
	l.Close()

	// Flip one payload byte in the middle of the (single) segment:
	// durably-written history that no longer checks out.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Frozen() == nil {
		t.Fatal("corrupt history did not freeze the ledger")
	}
	if !errors.Is(l2.Recovery().Err, ErrCorrupt) {
		t.Fatalf("recovery error %v, want ErrCorrupt", l2.Recovery().Err)
	}
	if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append on frozen ledger: %v, want ErrFrozen", err)
	}
	// Read-only replay agrees.
	if _, _, err := Replay(dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay: %v, want ErrCorrupt", err)
	}
}

func TestChargeForUnknownDatasetIsCorrupt(t *testing.T) {
	st := NewState(0)
	err := st.Apply(&Event{Seq: 1, Type: EventCharge, Dataset: "ghost", Analyst: "a", Epsilon: 0.1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestSequenceGapIsCorrupt(t *testing.T) {
	st := NewState(0)
	if err := st.Apply(&Event{Seq: 1, Type: EventDatasetCreated, Dataset: "d"}); err != nil {
		t.Fatal(err)
	}
	err := st.Apply(&Event{Seq: 3, Type: EventCharge, Dataset: "d", Analyst: "a", Epsilon: 0.1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestIdemReplyPersistAndExpiry(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour).UnixNano()
	past := time.Now().Add(-time.Hour).UnixNano()
	evs := []Event{
		{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1},
		{Type: EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "alice",
			Key: "k1", Status: 200, Body: []byte(`{"values":[1]}`), Expires: future},
		{Type: EventIdemReply, Endpoint: "/v1/query", Dataset: "d", Analyst: "alice",
			Key: "k2", Status: 200, Body: []byte(`{"values":[2]}`), Expires: past},
	}
	appendAll(t, l, evs)
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	idem := l2.CopyState().Idem
	if got := idem[IdemKeyString("/v1/query", "d", "alice", "k1")]; got == nil || string(got.Body) != `{"values":[1]}` {
		t.Fatalf("live idem reply not recovered: %+v", got)
	}
	if got := idem[IdemKeyString("/v1/query", "d", "alice", "k2")]; got != nil {
		t.Fatal("expired idem reply survived recovery")
	}
}

func TestBudgetSentinel(t *testing.T) {
	if EncodeBudget(math.Inf(1)) != -1 {
		t.Fatal("EncodeBudget(+Inf) != -1")
	}
	if !math.IsInf(DecodeBudget(-1), 1) {
		t.Fatal("DecodeBudget(-1) != +Inf")
	}
	if DecodeBudget(EncodeBudget(2.5)) != 2.5 {
		t.Fatal("finite budget did not round-trip")
	}
	// And through a real ledger: unlimited budgets must survive the
	// JSON encoding, which cannot carry +Inf directly.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{Type: EventDatasetCreated, Dataset: "d", Kind: "packet",
		Total: EncodeBudget(math.Inf(1)), PerAnalyst: EncodeBudget(math.Inf(1))}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ds := l2.CopyState().Datasets["d"]
	if !math.IsInf(DecodeBudget(ds.Total), 1) {
		t.Fatalf("unlimited budget did not survive snapshot: %v", ds.Total)
	}
}

func TestAuditCapBoundsState(t *testing.T) {
	st := NewState(10)
	if err := st.Apply(&Event{Seq: 1, Type: EventDatasetCreated, Dataset: "d"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := st.Apply(&Event{Seq: uint64(i + 2), Type: EventAudit,
			Dataset: "d", Analyst: "a", Query: "count", Outcome: "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.Audit) > 10 {
		t.Fatalf("audit trail grew to %d entries, cap is 10", len(st.Audit))
	}
}

// TestStateAccessorsReturnCopies: Dataset and CopyState hand out
// copies, so readers racing live appends (a follower's replication
// stream against a server registering datasets) never share the maps
// Apply writes, and a copy never moves after it is taken.
func TestStateAccessorsReturnCopies(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, chargeEvents(1))
	appendAll(t, l, []Event{
		{Type: EventStandingRegistered, Dataset: "d", Analyst: "alice", Standing: "sq", Query: "count", Epsilon: 0.1, Reservation: 1, Width: 10},
		{Type: EventStandingWindow, Dataset: "d", Standing: "sq", Window: 0, Watermark: 10, Charged: 0.1, Outcome: "ok"},
	})
	ds, ok := l.Dataset("d")
	st := l.CopyState()
	if !ok || ds.Spent["alice"] != 0.2 {
		t.Fatalf("Dataset = %+v, %v", ds, ok)
	}
	if _, ok := l.Dataset("nope"); ok {
		t.Fatal("unknown dataset reported present")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := l.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := l.Append(Event{Type: EventStandingWindow, Dataset: "d", Standing: "sq", Window: 1, Watermark: 20, Charged: 0.1, Outcome: "ok"}); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 200; i++ {
		d, _ := l.Dataset("d")
		d.Spent["mallory"] = 1 // writes only the copy
		c := l.CopyState()
		c.Datasets["d"].Spent["mallory"] = 1
	}
	<-done

	if ds.Spent["alice"] != 0.2 || st.Datasets["d"].Spent["alice"] != 0.2 || st.Seq != 4 {
		t.Fatalf("copies moved with the ledger: %+v, seq %d", ds, st.Seq)
	}
	if w := st.Standing[StandingKeyString("d", "sq")].Windows; len(w) != 1 {
		t.Fatalf("copied standing ring moved: %d windows", len(w))
	}
	live, _ := l.Dataset("d")
	if _, leaked := live.Spent["mallory"]; leaked {
		t.Fatal("a write to a copy reached the ledger")
	}
	if got := l.CopyState().Standing[StandingKeyString("d", "sq")].Windows; len(got) != 2 {
		t.Fatalf("live standing ring has %d windows, want 2", len(got))
	}
}
