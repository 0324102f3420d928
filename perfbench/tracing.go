package main

// Tracing for the traced pass. Every wrapper here sits on a seam the
// program already accepts from its caller — the server's http.Handler,
// the client's http.RoundTripper, noise.Source, the ledger's vfs.FS,
// the replication listener and follower dialer, and the qlog event
// sink — so the program under test is unchanged. Spans stay in memory
// and are summarised (and optionally written out) when the run ends.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dptrace/internal/ledger"
	"dptrace/internal/noise"
	"dptrace/internal/obs"
	"dptrace/internal/repl"
	"dptrace/internal/vfs"
)

// Headers that carry the benchmark's request ID and the client span
// to the handler wrapper in the traced pass. The server ignores them.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"`
	Resp   int64  `json:"resp,omitempty"` // response bytes of a round trip
	Kind   string `json:"kind,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// active is what the handler wrapper knows about the request a
// goroutine is serving.
type active struct{ req, span int64 }

// queryEvent is the part of a "query" wide event the benchmark joins
// to its spans.
type queryEvent struct {
	Kind       string
	DurationMs float64
	Profile    *obs.Profile
}

// tracer collects spans and counters. A nil *tracer is the untraced
// pass: every method is a no-op.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu     sync.Mutex
	spans  []span
	events []queryEvent

	// byGID maps a serving goroutine to its request, so work the
	// server does on that goroutine (ledger writes, wide events) joins
	// the request's span tree.
	byGID sync.Map // int64 -> active
	// bySeq maps a ledger seq to the span that wrote it, so the
	// replication ack joins the write it waited for.
	bySeq sync.Map // uint64 -> active

	noiseDraws, noiseBusyNs atomic.Int64
	eventCount, eventBytes  atomic.Int64
	replBytes, replEvents   atomic.Int64
	windowEvents, lagMax    atomic.Int64

	// ledgers holds each ledger's filesystem counters by side
	// ("primary", "follower").
	ledgers map[string]*fsStats

	// ops holds engine operator timings reported to the default
	// recorder (the paper drivers' queries), in ms by operator.
	ops         map[string][]float64
	parallelOps int
}

// opRecorder is the engine's default recorder in the traced pass.
type opRecorder struct{ t *tracer }

func (r *opRecorder) OpDone(op string, d time.Duration, in, out, workers int) {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if r.t.ops == nil {
		r.t.ops = map[string][]float64{}
	}
	r.t.ops[op] = append(r.t.ops[op], ms(d))
	if workers > 1 {
		r.t.parallelOps++
	}
}

func (r *opRecorder) AggDone(string, string, float64, time.Duration) {}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ledgers: map[string]*fsStats{"primary": {}, "follower": {}}}
}

// reset drops everything recorded so far: set-up is not measured.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.events, t.ops, t.parallelOps = nil, nil, nil, 0
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{&t.noiseDraws, &t.noiseBusyNs, &t.eventCount, &t.eventBytes,
		&t.replBytes, &t.replEvents, &t.windowEvents, &t.lagMax} {
		c.Store(0)
	}
	for _, st := range t.ledgers {
		for _, c := range []*atomic.Int64{&st.walWrites, &st.walBytes, &st.otherBytes, &st.fsyncs, &st.busyNs} {
			c.Store(0)
		}
	}
}

// fsStats counts one ledger's filesystem work.
type fsStats struct {
	walWrites, walBytes, otherBytes atomic.Int64
	fsyncs, busyNs                  atomic.Int64
}

// fs returns the counters of one side's ledger.
func (t *tracer) fs(side string) *fsStats { return t.ledgers[side] }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() int64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans and joined events recorded so far.
func (t *tracer) snapshot() ([]span, []queryEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]queryEvent(nil), t.events...)
}

// goid returns the current goroutine's ID, parsed from its stack
// header ("goroutine 123 [running]:"). It is only called in the
// traced pass.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// current returns the request the calling goroutine serves, if any.
func (t *tracer) current() active {
	if v, ok := t.byGID.Load(goid()); ok {
		return v.(active)
	}
	return active{}
}

// endpointClass names a request path's traffic class.
func endpointClass(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/query"):
		return "query"
	case strings.HasPrefix(path, "/v1/ingest/"):
		return "ingest"
	case strings.HasPrefix(path, "/v1/standing/"):
		return "standing"
	}
	return "other"
}

// handler wraps the server's http.Handler with a span per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := t.id()
		g := goid()
		t.byGID.Store(g, active{req: req, span: id})
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		t.byGID.Delete(g)
		t.add(span{ID: id, Parent: parent, Req: req, Name: "handler." + endpointClass(r.URL.Path), Start: start, End: end})
	})
}

// reqInfo travels in a client call's context: the request ID and the
// client span that round trips should hang under.
type reqInfo struct{ req, span int64 }

type reqKey struct{}

// capture travels in a client call's context and receives the raw
// response body, so the idempotency audit can compare bytes.
type capture struct{ body []byte }

type captureKey struct{}

// clientCall starts a client-side span for one logical request and
// returns the context that carries it to the transport.
func (t *tracer) clientCall(ctx context.Context, req int64) (context.Context, func(kind string)) {
	if t == nil {
		return ctx, func(string) {}
	}
	id := t.id()
	start := t.now()
	ctx = context.WithValue(ctx, reqKey{}, reqInfo{req: req, span: id})
	return ctx, func(kind string) {
		t.add(span{ID: id, Req: req, Name: "client.call", Start: start, End: t.now(), Kind: kind})
	}
}

// transport is the client's http.RoundTripper. It always serves the
// body capture the audits need; in the traced pass it also records a
// round-trip span with the bytes on the wire and tags the request for
// the handler wrapper.
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	capt, _ := r.Context().Value(captureKey{}).(*capture)
	info, _ := r.Context().Value(reqKey{}).(reqInfo)
	var id, start int64
	if tt.t != nil {
		id = tt.t.id()
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(info.req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		start = tt.t.now()
	}
	if capt != nil {
		capt.body = capt.body[:0] // keep only the attempt that answers
	}
	resp, err := tt.base.RoundTrip(r)
	if err != nil || (tt.t == nil && capt == nil) {
		return resp, err
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, capt: capt, t: tt.t, sp: span{
		ID: id, Parent: info.span, Req: info.req, Name: "client.roundtrip",
		Start: start, Bytes: r.ContentLength, Kind: endpointClass(r.URL.Path),
	}}
	return resp, nil
}

// tapBody counts and optionally copies a response body, closing the
// round-trip span when the body has been consumed.
type tapBody struct {
	io.ReadCloser
	capt *capture
	t    *tracer
	sp   span
	n    int64
	done bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.capt != nil {
		b.capt.body = append(b.capt.body, p[:n]...)
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tapBody) finish() {
	if b.done || b.t == nil {
		b.done = true
		return
	}
	b.done = true
	b.sp.End = b.t.now()
	b.sp.Resp = b.n
	b.t.add(b.sp)
}

// noiseSource counts draws and the time spent in them.
type noiseSource struct {
	inner noise.Source
	t     *tracer
}

func (n *noiseSource) Float64() float64 {
	start := time.Now()
	v := n.inner.Float64()
	n.t.noiseBusyNs.Add(int64(time.Since(start)))
	n.t.noiseDraws.Add(1)
	return v
}

// eventSink is the qlog writer: one JSON line per wide event. It
// counts every event and joins "query" and "standing_window" events
// to the spans of the goroutine that emitted them.
type eventSink struct{ t *tracer }

func (s eventSink) Write(p []byte) (int, error) {
	if s.t == nil {
		return len(p), nil
	}
	end := s.t.now()
	s.t.eventCount.Add(1)
	s.t.eventBytes.Add(int64(len(p)))
	var ev struct {
		Event      string       `json:"event"`
		Query      string       `json:"query"`
		DurationMs float64      `json:"duration_ms"`
		Profile    *obs.Profile `json:"profile"`
	}
	if json.Unmarshal(p, &ev) != nil {
		return len(p), nil
	}
	switch ev.Event {
	case "query":
		cur := s.t.current()
		start := end - int64(ev.DurationMs*float64(time.Millisecond))
		s.t.mu.Lock()
		s.t.events = append(s.t.events, queryEvent{Kind: ev.Query, DurationMs: ev.DurationMs, Profile: ev.Profile})
		s.t.mu.Unlock()
		s.t.add(span{ID: s.t.id(), Parent: cur.span, Req: cur.req, Name: "core.exec", Start: start, End: end, Kind: ev.Query})
	case "standing_window":
		s.t.windowEvents.Add(1)
		start := end - int64(ev.DurationMs*float64(time.Millisecond))
		s.t.add(span{ID: s.t.id(), Name: "standing.fire", Start: start, End: end, Kind: ev.Query})
	}
	return len(p), nil
}

// tracedFS wraps the ledger's filesystem: a span per WAL write and
// per fsync, byte counts by file kind, and busy time. side names the
// ledger ("primary" or "follower").
type tracedFS struct {
	vfs.FS
	t    *tracer
	side string
	st   *fsStats
}

func (f *tracedFS) timed(start time.Time) { f.st.busyNs.Add(int64(time.Since(start))) }

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	start := time.Now()
	file, err := f.FS.OpenFile(name, flag, perm)
	f.timed(start)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, name: filepath.Base(name), opened: f.t.now()}, nil
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	defer f.timed(start)
	return f.FS.ReadFile(name)
}

func (f *tracedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	start := time.Now()
	defer f.timed(start)
	return f.FS.ReadDir(name)
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	defer f.timed(start)
	return f.FS.Rename(oldpath, newpath)
}

func (f *tracedFS) Remove(name string) error {
	start := time.Now()
	defer f.timed(start)
	return f.FS.Remove(name)
}

func (f *tracedFS) SyncDir(name string) error {
	start := time.Now()
	defer f.timed(start)
	return f.FS.SyncDir(name)
}

type tracedFile struct {
	vfs.File
	fs     *tracedFS
	name   string
	opened int64
}

func (w *tracedFile) isWAL() bool { return strings.HasSuffix(w.name, ".wal") }

func (w *tracedFile) record(p []byte, start int64) {
	t, st := w.fs.t, w.fs.st
	end := t.now()
	st.busyNs.Add(end - start)
	if !w.isWAL() {
		st.otherBytes.Add(int64(len(p)))
		return
	}
	st.walWrites.Add(1)
	st.walBytes.Add(int64(len(p)))
	cur := t.current()
	id := t.id()
	var kind string
	if ev, _, err := ledger.DecodeRecord(p); err == nil {
		kind = ev.Type
		if w.fs.side == "primary" {
			t.bySeq.Store(ev.Seq, active{req: cur.req, span: id})
		}
	}
	t.add(span{ID: id, Parent: cur.span, Req: cur.req, Name: w.fs.side + ".ledger.write", Start: start, End: end, Bytes: int64(len(p)), Kind: kind})
}

func (w *tracedFile) Write(p []byte) (int, error) {
	start := w.fs.t.now()
	n, err := w.File.Write(p)
	w.record(p[:n], start)
	return n, err
}

func (w *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := w.fs.t.now()
	n, err := w.File.WriteAt(p, off)
	w.record(p[:n], start)
	return n, err
}

func (w *tracedFile) Sync() error {
	t := w.fs.t
	start := t.now()
	err := w.File.Sync()
	end := t.now()
	w.fs.st.busyNs.Add(end - start)
	if w.isWAL() {
		w.fs.st.fsyncs.Add(1)
	}
	cur := t.current()
	t.add(span{ID: t.id(), Parent: cur.span, Req: cur.req, Name: w.fs.side + ".ledger.fsync", Start: start, End: end, Kind: w.name})
	return err
}

func (w *tracedFile) Close() error {
	t := w.fs.t
	start := t.now()
	err := w.File.Close()
	end := t.now()
	w.fs.st.busyNs.Add(end - start)
	if strings.HasPrefix(w.name, "snap-") {
		t.add(span{ID: t.id(), Name: w.fs.side + ".ledger.snapshot", Start: w.opened, End: end})
	}
	return err
}

// Replication wire framing (see internal/repl/proto.go): an 8-byte
// magic per direction, then frames of uint32 length, uint32 CRC32C,
// one kind byte and the payload.
const (
	replMagicLen = 8
	frameEvent   = 'E'
	frameAck     = 'A'
)

// frameParser follows one direction of a replication stream and calls
// onFrame for every complete frame.
type frameParser struct {
	skip    int // magic bytes still to skip
	hdr     []byte
	need    int
	body    []byte
	onFrame func(kind byte, payload []byte)
}

func newFrameParser(on func(kind byte, payload []byte)) *frameParser {
	return &frameParser{skip: replMagicLen, onFrame: on}
}

func (p *frameParser) feed(b []byte) {
	for len(b) > 0 {
		if p.skip > 0 {
			n := min(p.skip, len(b))
			p.skip -= n
			b = b[n:]
			continue
		}
		if p.need == 0 {
			take := min(8-len(p.hdr), len(b))
			p.hdr = append(p.hdr, b[:take]...)
			b = b[take:]
			if len(p.hdr) == 8 {
				p.need = int(binary.LittleEndian.Uint32(p.hdr[0:4]))
				if p.need == 0 {
					p.hdr = p.hdr[:0]
				}
				p.body = p.body[:0]
			}
			continue
		}
		take := min(p.need, len(b))
		p.body = append(p.body, b[:take]...)
		p.need -= take
		b = b[take:]
		if p.need == 0 {
			p.onFrame(p.body[0], p.body[1:])
			p.hdr = p.hdr[:0]
		}
	}
}

// replListener wraps the primary's replication listener: each
// follower connection measures the round trip from an event frame
// written to the ack that covers it.
type replListener struct {
	net.Listener
	t *tracer
}

func (l *replListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pc := &primaryConn{Conn: c, t: l.t, sent: map[uint64]int64{}}
	pc.out = newFrameParser(pc.onWritten)
	pc.in = newFrameParser(pc.onRead)
	return pc, nil
}

type primaryConn struct {
	net.Conn
	t       *tracer
	mu      sync.Mutex
	out, in *frameParser
	sent    map[uint64]int64 // seq -> frame written
}

func (c *primaryConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.t.replBytes.Add(int64(n))
	c.mu.Lock()
	c.out.feed(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *primaryConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.in.feed(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *primaryConn) onWritten(kind byte, payload []byte) {
	if kind != frameEvent {
		return
	}
	var ev ledger.Event
	if ledger.DecodeEventPayload(payload, &ev) == nil {
		c.sent[ev.Seq] = c.t.now()
		c.t.replEvents.Add(1)
	}
}

func (c *primaryConn) onRead(kind byte, payload []byte) {
	if kind != frameAck {
		return
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if json.Unmarshal(payload, &ack) != nil {
		return
	}
	now := c.t.now()
	for seq, at := range c.sent {
		if seq > ack.Seq {
			continue
		}
		delete(c.sent, seq)
		var w active
		if v, ok := c.t.bySeq.LoadAndDelete(seq); ok {
			w = v.(active)
		}
		c.t.add(span{ID: c.t.id(), Parent: w.span, Req: w.req, Name: "repl.ack", Start: at, End: now})
	}
}

// followerDial wraps the follower's dialer so its connection is
// counted too (the follower's fsyncs are traced through its own
// ledger filesystem).
func (t *tracer) followerDial() repl.DialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := &followerConn{Conn: c, t: t, got: map[uint64]int64{}}
		fc.in = newFrameParser(fc.onRead)
		fc.out = newFrameParser(fc.onWritten)
		return fc, nil
	}
}

// followerConn measures the follower's apply time: event frame read
// to the ack that covers it.
type followerConn struct {
	net.Conn
	t       *tracer
	mu      sync.Mutex
	in, out *frameParser
	got     map[uint64]int64
}

func (c *followerConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.in.feed(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *followerConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.out.feed(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *followerConn) onRead(kind byte, payload []byte) {
	if kind != frameEvent {
		return
	}
	var ev ledger.Event
	if ledger.DecodeEventPayload(payload, &ev) == nil {
		c.got[ev.Seq] = c.t.now()
	}
}

func (c *followerConn) onWritten(kind byte, payload []byte) {
	if kind != frameAck {
		return
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if json.Unmarshal(payload, &ack) != nil {
		return
	}
	now := c.t.now()
	for seq, at := range c.got {
		if seq <= ack.Seq {
			delete(c.got, seq)
			c.t.add(span{ID: c.t.id(), Name: "repl.follower_apply", Start: at, End: now})
		}
	}
}

// direct records a span around a direct call into a layer function.
func (t *tracer) direct(name, kind string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{ID: t.id(), Name: name, Start: start, End: t.now(), Kind: kind})
}

// selfTime is a span's duration minus the part of its interval its
// children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Merge overlapping intervals (children may overlap each other).
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			covered += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	covered += curB - curA
	return parent.dur() - time.Duration(covered)
}
