package repl

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/vfs"
)

func openLedger(t *testing.T, dir string, fsys vfs.FS, fsync ledger.FsyncPolicy, snapEvery int) *ledger.Ledger {
	t.Helper()
	l, err := ledger.Open(ledger.Options{Dir: dir, FS: fsys, Fsync: fsync, SnapshotEvery: snapEvery})
	if err != nil {
		t.Fatalf("ledger.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func charge(analyst string, eps float64) ledger.Event {
	return ledger.Event{Type: ledger.EventCharge, Dataset: "d", Analyst: analyst, Epsilon: eps}
}

// seedDataset registers the test dataset — charges against unknown
// datasets are refused as corruption.
func seedDataset(t *testing.T, l *ledger.Ledger) {
	t.Helper()
	if err := l.Append(ledger.Event{Type: ledger.EventDatasetCreated, Dataset: "d", Kind: "packets",
		Total: 100, PerAnalyst: 50}); err != nil {
		t.Fatal(err)
	}
}

// startPrimary wires a Primary over led and serves it on a loopback
// listener, returning the primary and its address.
func startPrimary(t *testing.T, led *ledger.Ledger, cfg PrimaryConfig) (*Primary, string) {
	t.Helper()
	p := NewPrimary(led, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.Serve(ln)
	t.Cleanup(p.Close)
	return p, ln.Addr().String()
}

func startFollower(t *testing.T, led *ledger.Ledger, cfg FollowerConfig) *Follower {
	t.Helper()
	f, err := NewFollower(led, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Close)
	return f
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func assertDiffClean(t *testing.T, dirA, dirB string) {
	t.Helper()
	r, err := ledger.Diff(dirA, dirB, 0)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if !r.Clean() {
		t.Fatalf("ledgers diverged at seq %d", r.Diverged.Seq)
	}
	if r.OnlyA != 0 || r.OnlyB != 0 || r.MaxSpentDelta() != 0 {
		t.Fatalf("ledgers drifted: onlyA=%d onlyB=%d maxDelta=%v", r.OnlyA, r.OnlyB, r.MaxSpentDelta())
	}
}

func TestStreamBacklogAndLiveTail(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	for i := 0; i < 5; i++ {
		if err := pl.Append(charge("alice", 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})

	var mu sync.Mutex
	var applied []uint64
	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f", OnApply: func(ev ledger.Event) {
		mu.Lock()
		applied = append(applied, ev.Seq)
		mu.Unlock()
	}})
	waitUntil(t, 5*time.Second, func() bool { return f.Applied() == 6 }, "backlog catch-up")

	// Live tail: appends through the primary reach the follower.
	for i := 0; i < 5; i++ {
		if err := p.Append(charge("bob", 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, func() bool { return f.Applied() == 11 }, "live tail")
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range applied {
		if seq != uint64(i+1) {
			t.Fatalf("OnApply seqs = %v, want 1..11 in order", applied)
		}
	}
	if f.Lag() != 0 {
		t.Fatalf("lag = %d after catch-up", f.Lag())
	}
	assertDiffClean(t, dirA, dirB)
}

func TestFollowerResumesFromMidSeq(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	for i := 0; i < 6; i++ {
		if err := pl.Append(charge("alice", 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})

	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return f.Applied() == 7 }, "first catch-up")
	f.Close()

	// The primary moves on while the follower is down.
	for i := 0; i < 4; i++ {
		if err := pl.Append(charge("bob", 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh follower over the same ledger resumes from seq 7 — the
	// handshake carries its position and last-record CRC.
	f2 := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return f2.Applied() == 11 }, "resume catch-up")
	assertDiffClean(t, dirA, dirB)
}

func TestSnapshotCatchUpBehindCompaction(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	// SnapshotEvery 4 compacts early history away: an empty follower
	// must be seeded with a snapshot, not a stream from seq 1.
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, 4)
	seedDataset(t, pl)
	for i := 0; i < 10; i++ {
		if err := pl.Append(charge("alice", 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})

	reset := 0
	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f", OnReset: func() { reset++ }})
	waitUntil(t, 5*time.Second, func() bool { return f.Applied() == 11 }, "snapshot catch-up")
	if reset != 1 {
		t.Fatalf("OnReset fired %d times, want 1", reset)
	}
	st := fl.CopyState()
	if st.Seq != 11 || st.Datasets["d"] == nil || st.Datasets["d"].Spent["alice"] == 0 {
		t.Fatalf("follower state not warmed: %+v", st)
	}
	assertDiffClean(t, dirA, dirB)
}

func TestQuorumGateRefusesBeforeJournaling(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p", MinSync: 1, AckTimeout: 5 * time.Second})

	// No follower connected: the spend is refused BEFORE the journal —
	// nothing on disk, no budget moved.
	if err := p.Append(charge("alice", 0.1)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("append without quorum = %v, want ErrNoQuorum", err)
	}
	if pl.CommittedSeq() != 0 {
		t.Fatalf("refused append journaled anyway (seq %d)", pl.CommittedSeq())
	}

	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return p.Connected() == 1 }, "follower attach")

	// With the follower attached, Append returns only after the
	// follower has durably applied the event.
	if err := p.Append(ledger.Event{Type: ledger.EventDatasetCreated, Dataset: "d", Kind: "packets",
		Total: 100, PerAnalyst: 50}); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(charge("alice", 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := f.Applied(); got != 2 {
		t.Fatalf("follower applied %d at Append return, want 2 (synchronous ack)", got)
	}
	assertDiffClean(t, dirA, dirB)
}

// fakeFollower speaks just enough protocol to subscribe and then
// misbehave in controlled ways.
type fakeFollower struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dialFake(t *testing.T, addr string, sub subRequest) (*fakeFollower, byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ff := &fakeFollower{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := readMagic(ff.br); err != nil {
		t.Fatal(err)
	}
	if err := writeMagic(ff.bw); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFrame(ff.bw, kindSub, sub); err != nil {
		t.Fatal(err)
	}
	if err := ff.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := readFrame(ff.br)
	if err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	return ff, kind, payload
}

func TestAckTimeoutIsConservative(t *testing.T) {
	dirA := t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p", MinSync: 1, AckTimeout: 150 * time.Millisecond})

	// A follower that subscribes but never acks.
	_, kind, _ := dialFake(t, addr, subRequest{Name: "mute"})
	if kind != kindPub {
		t.Fatalf("handshake frame %q, want pub", kind)
	}
	waitUntil(t, 5*time.Second, func() bool { return p.Connected() == 1 }, "fake attach")

	err := p.Append(charge("alice", 0.1))
	if !errors.Is(err, ErrAckTimeout) {
		t.Fatalf("append with mute follower = %v, want ErrAckTimeout", err)
	}
	// The event IS journaled: the timeout is an over-count (the charge
	// stands), never an under-count.
	if pl.CommittedSeq() != 2 {
		t.Fatalf("seq after ack timeout = %d, want 2 (journaled)", pl.CommittedSeq())
	}
}

// Close must not strand synchronous appends: waiters already holding
// a journaled event fail immediately with an ErrAckTimeout-class
// error (charged, conservative), and appends arriving after Close
// refuse with ErrClosed before journaling anything.
func TestCloseFailsWaitersImmediately(t *testing.T) {
	dirA := t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	// AckTimeout far beyond the test timeout: only Close can end the wait.
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p", MinSync: 1, AckTimeout: time.Hour})

	// A follower that subscribes but never acks, so the append blocks.
	_, kind, _ := dialFake(t, addr, subRequest{Name: "mute"})
	if kind != kindPub {
		t.Fatalf("handshake frame %q, want pub", kind)
	}
	waitUntil(t, 5*time.Second, func() bool { return p.Connected() == 1 }, "fake attach")

	appendErr := make(chan error, 1)
	go func() { appendErr <- p.Append(charge("alice", 0.1)) }()
	waitUntil(t, 5*time.Second, func() bool { return pl.CommittedSeq() == 2 }, "append journaled")

	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case err := <-appendErr:
		if !errors.Is(err, ErrAckTimeout) {
			t.Fatalf("append interrupted by Close = %v, want ErrAckTimeout-class", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the synchronous append waiting")
	}
	<-done

	// The journaled event stands (over-count, never under-count) and
	// new appends refuse cleanly before journaling.
	if pl.CommittedSeq() != 2 {
		t.Fatalf("seq after Close = %d, want 2", pl.CommittedSeq())
	}
	if err := p.Append(charge("alice", 0.1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close = %v, want ErrClosed", err)
	}
	if pl.CommittedSeq() != 2 {
		t.Fatalf("post-Close append journaled anyway (seq %d)", pl.CommittedSeq())
	}
}

func TestFencingBothDirections(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	if err := pl.Append(charge("alice", 0.1)); err != nil {
		t.Fatal(err)
	}
	p, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})

	// The follower has lived through a promotion (epoch 3); this
	// primary is from a dead regime (epoch 0). The follower must refuse
	// it AND the primary must realize it has been deposed.
	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	if err := fl.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return f.Err() != nil }, "follower fatal")
	if !errors.Is(f.Err(), ErrFenced) {
		t.Fatalf("follower err = %v, want ErrFenced", f.Err())
	}
	waitUntil(t, 5*time.Second, func() bool { return p.Fenced() != nil }, "primary fenced")
	if err := p.Append(charge("alice", 0.1)); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed primary append = %v, want ErrFenced", err)
	}
	if pl.CommittedSeq() != 2 {
		t.Fatalf("deposed primary journaled anyway (seq %d)", pl.CommittedSeq())
	}
}

func TestDivergedHistoriesRefused(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	seedDataset(t, fl)
	// Two independent histories: same seqs, different bytes.
	for i := 0; i < 4; i++ {
		if err := pl.Append(charge("alice", 0.1)); err != nil {
			t.Fatal(err)
		}
		if err := fl.Append(charge("mallory", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return f.Err() != nil }, "follower fatal")
	if !errors.Is(f.Err(), ErrDiverged) {
		t.Fatalf("follower err = %v, want ErrDiverged", f.Err())
	}
	if fl.CommittedSeq() != 5 {
		t.Fatal("divergence refusal must not modify the follower ledger")
	}
}

func TestPromoteSealsVerifiesAndBumpsEpoch(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pl := openLedger(t, dirA, nil, ledger.FsyncNever, -1)
	seedDataset(t, pl)
	_, addr := startPrimary(t, pl, PrimaryConfig{Name: "p"})
	for i := 0; i < 8; i++ {
		if err := pl.Append(charge("alice", 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	fl := openLedger(t, dirB, nil, ledger.FsyncNever, -1)
	f := startFollower(t, fl, FollowerConfig{Primary: addr, Name: "f"})
	waitUntil(t, 5*time.Second, func() bool { return f.Applied() == 9 }, "catch-up")

	epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch != 1 || fl.Epoch() != 1 {
		t.Fatalf("epoch after promote = %d (ledger %d), want 1", epoch, fl.Epoch())
	}
	// The promoted ledger accepts spends at exactly the replayed
	// boundary.
	if err := fl.Append(charge("bob", 0.2)); err != nil {
		t.Fatal(err)
	}
	if fl.CommittedSeq() != 10 {
		t.Fatalf("first post-promote seq = %d, want 10", fl.CommittedSeq())
	}
	if _, err := f.Promote(); err == nil {
		t.Fatal("second Promote accepted")
	}
}
