package dpserver

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
)

// This file is the server's wide-event layer: every completed
// budget-spending request becomes exactly ONE structured "query" event
// carrying the full execution profile (see internal/obs/qlog for the
// event model and internal/obs.Profile for the profile schema), plus
// the per-analyst budget telemetry derived from it. The flight
// recorder behind GET /debug/queries is the event ring itself.

// ExplainHeader (api.ExplainHeader) is the request header through
// which an analyst asks for the query's execution profile in the
// response ("true" or "1").
// Explaining is free: it changes no budget accounting, no noise, and
// no ledger traffic — the profile is assembled from Recorder callbacks
// the query fires anyway. The returned profile is redacted (record
// counts zeroed) because exact operator cardinalities are pre-noise
// aggregate values (DESIGN.md §S31).
const ExplainHeader = api.ExplainHeader

// wantsExplain reports whether the request asked for its profile.
func wantsExplain(r *http.Request) bool {
	v := r.Header.Get(ExplainHeader)
	return v == "true" || v == "1"
}

// queryRun is the one record a spending execution builds: the
// identity fields of its wide event, the query's own metered budget
// agent, and the profile recorder its pipeline reports to. An executor
// opens it with beginQuery, runs the pipeline over run.agent with
// run.prof attached, and ends in finishQuery (or failQuery), which
// serves every per-query surface from the finished profile.
type queryRun struct {
	endpoint    string
	analyst     string
	dataset     string
	query       string
	epsilon     float64 // requested
	started     time.Time
	idempotency string // "none" or "miss"; replays short-circuit earlier
	policy      *core.AnalystPolicy

	agent *meteredAgent
	prof  *obs.ProfileRecorder

	// Set by finishQuery.
	outcome  string
	duration time.Duration
}

// beginQuery opens the record of one execution against policy on
// behalf of analyst, then runs the test hook (execHook) under ctx.
func (s *Server) beginQuery(ctx context.Context, endpoint, query, dataset, analyst string, epsilon float64, idemKey string, policy *core.AnalystPolicy) *queryRun {
	agent := &meteredAgent{inner: policy.AgentFor(analyst)}
	run := &queryRun{
		endpoint: endpoint, analyst: analyst, dataset: dataset,
		query: query, epsilon: epsilon, started: time.Now(),
		idempotency: idemStatus(idemKey), policy: policy,
		agent: agent, prof: obs.NewProfileRecorder(agent.charged),
	}
	if s.execHook != nil {
		s.execHook(ctx)
	}
	return run
}

// meteredAgent wraps a budget agent and accumulates the net ε applied
// through it — the race-free way to measure what one execution
// charged (a SpentBy delta would count concurrent queries by the same
// analyst). It sits at the top of the query's agent tree, so scaled
// charges (e.g. GroupBy's ×2) are measured as the roots see them.
type meteredAgent struct {
	inner core.Agent
	mu    sync.Mutex
	net   float64
}

func (m *meteredAgent) Apply(epsilon float64) error {
	if err := m.inner.Apply(epsilon); err != nil {
		return err
	}
	m.mu.Lock()
	m.net += epsilon
	m.mu.Unlock()
	return nil
}

func (m *meteredAgent) Rollback(epsilon float64) {
	m.inner.Rollback(epsilon)
	m.mu.Lock()
	m.net -= epsilon
	m.mu.Unlock()
}

func (m *meteredAgent) charged() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.net
}

// idemStatus names how a request relates to the idempotency cache at
// execution time: "none" (no key) or "miss" (keyed, first execution).
// Cache hits never reach an executor — serveIdempotent replays stored
// bytes and emits "query_replayed" instead.
func idemStatus(key string) string {
	if key == "" {
		return "none"
	}
	return "miss"
}

// slowQuery decides the slow-query log: a non-positive threshold
// disables it, and a query exactly at the threshold IS slow (>=, so
// "everything slower than X" includes X itself).
func slowQuery(d, threshold time.Duration) bool {
	return threshold > 0 && d >= threshold
}

// failQuery ends a run whose pipeline returned err: it classifies
// the error, ends the run in finishQuery, and returns the response
// status, its marshaled error body, and whether the outcome may be
// replayed for an idempotency key. The one non-replayable outcome is a
// cancellation that charged nothing: a retry should execute, not be
// handed back its own timeout.
func (s *Server) failQuery(run *queryRun, v1 bool, err error) (int, []byte, bool) {
	if errors.Is(err, core.ErrInternal) {
		// A panic recovered at the aggregation boundary (the worker or
		// recoverAgg guards): the request gets a clean 500 and the
		// process lives, but the panic is still a bug — count and log
		// it like one the HTTP middleware caught.
		s.metrics.Counter("dp_panics_total", "site", "aggregation").Inc()
		s.event(qlog.Error, "panic_recovered",
			qlog.F("site", "aggregation"),
			qlog.F("analyst", run.analyst),
			qlog.F("dataset", run.dataset),
			qlog.F("query", run.query),
			qlog.F("error", err.Error()))
	}
	charged := run.agent.charged()
	status, ae := classify(err, finiteOrUnlimited(run.policy.RemainingFor(run.analyst)), charged)
	s.finishQuery(run, status, err)
	return status, marshalError(v1, ae), !(run.outcome == "canceled" && charged == 0)
}

// finishQuery is the single sink of one execution, on its success and
// error paths alike. It freezes the run's profile and serves every
// per-query product from it: the audit entry (journalled here and
// nowhere else), the engine metrics (the profile replayed into the
// metrics recorder), and the one "query" wide event behind
// /debug/queries and /debug/traces. It also feeds the ε histogram and
// the analyst burn-rate gauge, and raises the slow-query warning past
// Limits.SlowQuery. It returns the unredacted profile; analyst-facing
// views must pass it through Redact.
func (s *Server) finishQuery(run *queryRun, status int, err error) *obs.Profile {
	run.duration = time.Since(run.started)
	run.outcome = "ok"
	if err != nil {
		run.outcome = auditOutcome(err)
	}
	charged := run.agent.charged()
	profile := run.prof.Profile()
	s.recordAudit(AuditEntry{
		Analyst: run.analyst, Dataset: run.dataset, Query: run.query,
		Epsilon: run.epsilon, Charged: charged, Outcome: run.outcome,
	})
	profile.Replay(s.engineRec)
	s.event(qlog.Info, "query",
		qlog.F("analyst", run.analyst),
		qlog.F("dataset", run.dataset),
		qlog.F("query", run.query),
		qlog.F("endpoint", run.endpoint),
		qlog.F("outcome", run.outcome),
		qlog.F("status", status),
		qlog.F("epsilon", run.epsilon),
		qlog.F("charged_epsilon", charged),
		qlog.F("duration_ms", durationMs(run.duration)),
		qlog.F("idempotency", run.idempotency),
		qlog.F("ops", len(profile.Ops)),
		qlog.F("parallel_ops", profile.ParallelOps()),
		qlog.F("aggs", len(profile.Aggs)),
		// The full profile, counts included: the event stream,
		// /debug/queries and /debug/traces are owner-side surfaces
		// under the /audit trust model. Analyst-facing copies go
		// through Redact.
		qlog.F("profile", profile),
	)
	s.metrics.Histogram("dp_query_epsilon", obs.EpsilonBuckets(),
		"dataset", run.dataset, "analyst", run.analyst).Observe(run.epsilon)
	s.ensureAnalystGauge(run.dataset, run.analyst, run.policy)
	if slowQuery(run.duration, s.limits.SlowQuery) {
		s.event(qlog.Warn, "slow_query",
			qlog.F("analyst", run.analyst),
			qlog.F("dataset", run.dataset),
			qlog.F("query", run.query),
			qlog.F("endpoint", run.endpoint),
			qlog.F("outcome", run.outcome),
			qlog.F("duration_ms", durationMs(run.duration)),
			qlog.F("threshold_ms", durationMs(s.limits.SlowQuery)))
	}
	return profile
}

// querySpan is the one span shape: root "query:<kind>" labelled with
// analyst, dataset and outcome over the profile's operator and
// aggregation children.
func querySpan(query, analyst, dataset, outcome string, start time.Time, d time.Duration, p *obs.Profile) *obs.Span {
	return p.Span("query:"+query, start, d, map[string]string{
		"analyst": analyst, "dataset": dataset, "outcome": outcome,
	})
}

// eventSpan renders one "query" wide event from the ring as its span
// tree, unredacted: GET /debug/traces is owner-side.
func eventSpan(e qlog.Event) *obs.Span {
	str := func(key string) string {
		v, _ := eventField(e, key).(string)
		return v
	}
	ms, _ := eventField(e, "duration_ms").(float64)
	p, _ := eventField(e, "profile").(*obs.Profile)
	d := time.Duration(ms * float64(time.Millisecond))
	return querySpan(str("query"), str("analyst"), str("dataset"), str("outcome"), e.Time.Add(-d), d, p)
}

// eventField returns the value of an event's field, or nil.
func eventField(e qlog.Event, key string) any {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return nil
}

// recentQueryEvents returns the "query" events the ring holds, newest
// first: the flight recorder behind /debug/traces.
func (s *Server) recentQueryEvents() []qlog.Event {
	var out []qlog.Event
	for _, e := range s.events.Recent(0) {
		if e.Name == "query" {
			out = append(out, e)
		}
	}
	return out
}

// durationMs renders a duration as fractional milliseconds, the unit
// the event schema uses throughout.
func durationMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// ensureAnalystGauge registers the burn-rate gauge for one
// (dataset, analyst) pair on first sight:
//
//	dp_analyst_budget_spent_ratio{dataset,analyst} = spent / cap
//
// 0 when the per-analyst cap is unlimited (there is no ratio to burn).
// Gauges are created lazily because the analyst population is only
// discovered as queries arrive.
func (s *Server) ensureAnalystGauge(dataset, analyst string, policy *core.AnalystPolicy) {
	if policy == nil {
		return
	}
	key := dataset + "\x00" + analyst
	if _, seen := s.analystGauges.LoadOrStore(key, struct{}{}); seen {
		return
	}
	s.metrics.GaugeFunc("dp_analyst_budget_spent_ratio", func() float64 {
		cap := policy.PerAnalystBudget()
		if cap <= 0 || math.IsInf(cap, 1) {
			return 0
		}
		return policy.SpentBy(analyst) / cap
	}, "dataset", dataset, "analyst", analyst)
}

// noteDegraded emits the degraded-mode transition events, exactly once
// per flip: "degraded_entered" when the ledger starts refusing spends,
// "degraded_exited" when it stops. Called from the admission path (the
// place every spend attempt observes the ledger's state).
func (s *Server) noteDegraded(cause error) {
	degraded := cause != nil
	if s.degradedNoted.CompareAndSwap(!degraded, degraded) {
		if degraded {
			s.event(qlog.Error, "degraded_entered", qlog.F("cause", cause.Error()))
		} else {
			s.event(qlog.Info, "degraded_exited")
		}
	}
}

// handleDebugQueries serves the recent wide events, newest first —
// the flight recorder for "what just happened on this server". ?n=
// limits the count; the ring's size bounds it regardless.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	events := s.events.Recent(0)
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			s.writeError(w, r, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "n must be a non-negative integer"})
			return
		}
		if n < len(events) {
			events = events[:n]
		}
	}
	if events == nil {
		events = []qlog.Event{}
	}
	writeJSON(w, http.StatusOK, events)
}
