package dpserver

import (
	"net/http"
	"strconv"
	"sync"
	"time"
)

// AuditEntry records one query attempt for the data owner's ledger.
// The paper's §7 governance ("limiting the total privacy cost per
// analyst or across all analysts") presumes the owner can see who
// spent what; entries record request metadata and outcome — never
// data. Refusals are logged too: a refusal consumes no budget but the
// owner still wants the attempt visible.
type AuditEntry struct {
	Time    time.Time `json:"time"`
	Analyst string    `json:"analyst"`
	Dataset string    `json:"dataset"`
	Query   string    `json:"query"`
	Epsilon float64   `json:"epsilon"`
	// Charged is the budget actually drawn (0 for refused or invalid
	// queries). It can exceed Epsilon when the query's derivation
	// amplifies sensitivity (GroupBy, self-joins).
	Charged float64 `json:"charged"`
	// Outcome is "ok", "refused", or "error".
	Outcome string `json:"outcome"`
}

// auditLog is a bounded in-memory ledger.
type auditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
	max     int
	now     func() time.Time
}

const defaultAuditCap = 10000

func newAuditLog(max int, now func() time.Time) *auditLog {
	if max <= 0 {
		max = defaultAuditCap
	}
	if now == nil {
		now = time.Now
	}
	return &auditLog{max: max, now: now}
}

func (l *auditLog) add(e AuditEntry) {
	e.Time = l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= l.max {
		// Drop the oldest half to amortize copying.
		keep := l.max / 2
		copy(l.entries, l.entries[len(l.entries)-keep:])
		l.entries = l.entries[:keep]
	}
	l.entries = append(l.entries, e)
}

// restore replaces the trail with ledger-recovered entries (startup
// only), keeping at most the newest max.
func (l *auditLog) restore(entries []AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(entries) > l.max {
		entries = entries[len(entries)-l.max:]
	}
	l.entries = append([]AuditEntry(nil), entries...)
}

func (l *auditLog) snapshot() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// len reports the current ledger depth (exported to the owner as the
// dpserver_audit_entries gauge).
func (l *auditLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Audit returns a copy of the query ledger, oldest first.
func (s *Server) Audit() []AuditEntry {
	return s.audit.snapshot()
}

// handleAudit serves GET /audit with optional ?analyst=, ?dataset=,
// and ?outcome= filters; ?limit=N keeps only the N most recent
// matches. This endpoint is for the data owner; expose it accordingly.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	analyst := r.URL.Query().Get("analyst")
	dataset := r.URL.Query().Get("dataset")
	outcome := r.URL.Query().Get("outcome")
	limit := -1
	if lStr := r.URL.Query().Get("limit"); lStr != "" {
		l, err := strconv.Atoi(lStr)
		if err != nil || l < 0 {
			s.writeError(w, r, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "limit must be a non-negative integer"})
			return
		}
		limit = l
	}
	out := []AuditEntry{}
	for _, e := range s.audit.snapshot() {
		if analyst != "" && e.Analyst != analyst {
			continue
		}
		if dataset != "" && e.Dataset != dataset {
			continue
		}
		if outcome != "" && e.Outcome != outcome {
			continue
		}
		out = append(out, e)
	}
	if limit >= 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	writeJSON(w, http.StatusOK, out)
}
