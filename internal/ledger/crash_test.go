package ledger

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoveryAtEveryTruncationOffset is the crash harness the torn-
// tail contract is defined by: append N events, then for EVERY byte
// offset inside the final record, truncate the WAL there and recover.
// Recovery must always succeed (a torn tail is a legitimate crash
// shape), yield exactly N or N−1 events, and never a corrupt state.
func TestRecoveryAtEveryTruncationOffset(t *testing.T) {
	const n = 8
	master := t.TempDir()
	l, err := Open(Options{Dir: master, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(n)) // 1 dataset_created + n charges
	l.Close()

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	// Locate the final record's start: walk the records once.
	lastStart := magicSize
	off := magicSize
	for off < len(full) {
		_, sz, err := DecodeRecord(full[off:])
		if err != nil {
			t.Fatalf("master WAL does not decode at %d: %v", off, err)
		}
		lastStart = off
		off += sz
	}
	total := n + 1 // dataset_created + n charges

	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		rec := l2.Recovery()
		if rec.Err != nil {
			t.Fatalf("cut=%d: recovery refused a torn tail: %v", cut, rec.Err)
		}
		st := l2.CopyState()
		// Everything before the final record must survive; the final
		// record itself must be dropped whole (cut < len(full) always
		// tears it).
		if got, want := st.Seq, uint64(total-1); got != want {
			t.Fatalf("cut=%d: recovered seq %d, want %d", cut, got, want)
		}
		ds := st.Datasets["d"]
		if ds == nil {
			t.Fatalf("cut=%d: dataset lost", cut)
		}
		want := 0.0
		for i := 0; i < n-1; i++ {
			want += 0.1
		}
		if ds.Spent["alice"] != want {
			t.Fatalf("cut=%d: alice spent %v, want %v", cut, ds.Spent["alice"], want)
		}
		// The ledger must keep working after truncation: the next
		// append takes the torn record's sequence number.
		if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		if got := l2.CommittedSeq(); got != uint64(total) {
			t.Fatalf("cut=%d: seq %d after re-append, want %d", cut, got, total)
		}
		l2.Close()

		// And the re-healed ledger must recover cleanly once more.
		l3, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if rec := l3.Recovery(); rec.Err != nil || rec.TornBytes != 0 {
			t.Fatalf("cut=%d: second recovery not clean: err=%v torn=%d", cut, rec.Err, rec.TornBytes)
		}
		l3.Close()
	}

	// The untruncated file recovers all N events.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName), full, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.CopyState().Seq; got != uint64(total) {
		t.Fatalf("full file recovered seq %d, want %d", got, total)
	}
}

// TestTruncationInsideHeaderOfFreshSegment covers the narrowest tear:
// the crash hit while the segment header itself was being written.
func TestTruncationInsideHeaderOfFreshSegment(t *testing.T) {
	for cut := 0; cut < magicSize; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(walMagic)[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if rec := l.Recovery(); rec.Err != nil {
			t.Fatalf("cut=%d: torn header treated as corrupt: %v", cut, rec.Err)
		}
		if err := l.Append(Event{Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 1, PerAnalyst: 1}); err != nil {
			t.Fatalf("cut=%d: append: %v", cut, err)
		}
		l.Close()
	}
}

// TestTornRecordMidHistoryIsCorrupt: a truncation-shaped gap is only
// forgivable at the very end of history. The same gap with later
// segments present means durably-written records vanished — fail
// closed.
func TestTornRecordMidHistoryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	// Two segments: force rotation via an explicit snapshot, then
	// delete the snapshot so recovery must rely on both segments.
	l, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, chargeEvents(4))
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []Event{{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}})
	l.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for _, s := range snaps {
		os.Remove(s)
	}
	// Compaction removed the pre-snapshot segment, so recreate a torn
	// first segment: its name says it starts at seq 1, but it holds
	// only half a record.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("want 1 remaining segment, got %v", segs)
	}
	buf, err := EncodeRecord([]byte(walMagic), &Event{Seq: 1, Type: EventDatasetCreated, Dataset: "d", Kind: "packet", Total: 10, PerAnalyst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf[:len(buf)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Recovery(); !errors.Is(rec.Err, ErrCorrupt) {
		t.Fatalf("mid-history tear recovered as %v, want ErrCorrupt", rec.Err)
	}
	if err := l2.Append(Event{Type: EventCharge, Dataset: "d", Analyst: "alice", Epsilon: 0.1}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append: %v, want ErrFrozen", err)
	}
}
