package dpserver

import (
	"context"
	"fmt"
	"net/http"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/noise"
	"dptrace/internal/trace"
)

// This file extends the server to the paper's other two dataset kinds:
// de-aggregated link traces (IspTraffic-shaped) and hop-count traces
// (IPscatter-shaped), with the queries their analyses start from.

// linkDataset hosts LinkSample records. Like dataset.packets, the
// samples slice is replaced wholesale under s.mu's write lock on
// ingest; executors run against a snapshot captured under the read
// lock.
type linkDataset struct {
	samples         []trace.LinkSample
	links           int
	bins            int
	policy          *core.AnalystPolicy
	exec            core.ExecOptions
	ingestedBatches uint64
}

// hopDataset hosts HopRecord records (same snapshot discipline).
type hopDataset struct {
	records         []trace.HopRecord
	monitors        int
	policy          *core.AnalystPolicy
	exec            core.ExecOptions
	ingestedBatches uint64
}

// AddLinkTrace registers a de-aggregated link trace with the given
// dimensions and budgets. Like AddPacketTrace, it refuses name
// collisions (ErrDatasetExists) rather than discard a spent-budget
// ledger.
func (s *Server) AddLinkTrace(name string, samples []trace.LinkSample, links, bins int, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nameTaken(name) {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d := &linkDataset{
		samples: samples, links: links, bins: bins,
		policy: core.NewAnalystPolicy(totalBudget, perAnalystBudget),
	}
	if err := s.registerDataset(name, kindLink, d.policy, totalBudget, perAnalystBudget); err != nil {
		return err
	}
	s.linkSets[name] = d
	d.policy.RegisterGauges(s.metrics, "dataset", name)
	return nil
}

// AddHopTrace registers a hop-count trace, refusing name collisions
// (ErrDatasetExists).
func (s *Server) AddHopTrace(name string, records []trace.HopRecord, monitors int, totalBudget, perAnalystBudget float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nameTaken(name) {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	d := &hopDataset{
		records: records, monitors: monitors,
		policy: core.NewAnalystPolicy(totalBudget, perAnalystBudget),
	}
	if err := s.registerDataset(name, kindHop, d.policy, totalBudget, perAnalystBudget); err != nil {
		return err
	}
	s.hopSets[name] = d
	d.policy.RegisterGauges(s.metrics, "dataset", name)
	return nil
}

// MatrixRequest is the POST /query/loadmatrix body (see
// api.MatrixRequest): extract the full noisy link×bin count matrix
// (the Fig 4 pipeline's first step) at one ε.
type MatrixRequest = api.MatrixRequest

// MatrixResponse carries the matrix in row-major order (rows = bins).
type MatrixResponse = api.MatrixResponse

func (s *Server) handleLoadMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Analyst == "" || req.Dataset == "" || req.Epsilon <= 0 {
		s.writeError(w, r, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "analyst, dataset and positive epsilon required"})
		return
	}
	s.mu.RLock()
	d, ok := s.linkSets[req.Dataset]
	var exec core.ExecOptions
	if ok {
		exec = d.exec
	}
	s.mu.RUnlock()
	if !ok {
		s.writeError(w, r, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown link dataset %q", req.Dataset)})
		return
	}
	// NOTE: the executor captures its record snapshot itself (under
	// s.mu) at execution time, which for keyed requests may be later
	// than this admission check.
	v1 := isV1(r)
	explain := wantsExplain(r)
	s.serveIdempotent(w, r, req.Dataset, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) (int, []byte, bool) {
			return s.executeLoadMatrix(ctx, v1, explain, d, exec, &req)
		})
}

func (s *Server) executeLoadMatrix(ctx context.Context, v1, explain bool, d *linkDataset, exec core.ExecOptions, req *MatrixRequest) (int, []byte, bool) {
	run := s.beginQuery(ctx, "/query/loadmatrix", "loadmatrix", req.Dataset, req.Analyst, req.Epsilon, req.IdempotencyKey, d.policy)
	s.mu.RLock()
	samples := d.samples
	s.mu.RUnlock()
	q := core.NewQueryableFor(samples, run.agent, s.src).
		WithRecorder(run.prof).WithExecOptions(exec).WithContext(ctx)

	linkKeys := make([]int32, d.links)
	for i := range linkKeys {
		linkKeys[i] = int32(i)
	}
	binKeys := make([]int32, d.bins)
	for i := range binKeys {
		binKeys[i] = int32(i)
	}
	data := make([]float64, d.bins*d.links)
	byLink := core.Partition(q, linkKeys, func(x trace.LinkSample) int32 { return x.Link })
	for l, lk := range linkKeys {
		byBin := core.Partition(byLink[lk], binKeys, func(x trace.LinkSample) int32 { return x.Bin })
		for b, bk := range binKeys {
			c, err := byBin[bk].NoisyCount(req.Epsilon)
			if err != nil {
				return s.failQuery(run, v1, err)
			}
			data[b*d.links+l] = c
		}
	}
	resp := MatrixResponse{
		Bins: d.bins, Links: d.links, Data: data,
		NoiseStd:  noise.LaplaceStd(req.Epsilon),
		Spent:     d.policy.SpentBy(req.Analyst),
		Remaining: finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)),
	}
	prof := s.finishQuery(run, http.StatusOK, nil)
	if explain {
		resp.Profile = prof.Redact()
	}
	return http.StatusOK, marshalJSON(resp), true
}

// HopAveragesRequest is the POST /query/monitoravgs body (see
// api.HopAveragesRequest): per-monitor noisy average hop counts (the
// topology analysis's imputation step).
type HopAveragesRequest = api.HopAveragesRequest

// HopAveragesResponse carries one average per monitor.
type HopAveragesResponse = api.HopAveragesResponse

func (s *Server) handleMonitorAverages(w http.ResponseWriter, r *http.Request) {
	var req HopAveragesRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Analyst == "" || req.Dataset == "" || req.Epsilon <= 0 {
		s.writeError(w, r, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "analyst, dataset and positive epsilon required"})
		return
	}
	if req.MaxHops <= 0 {
		req.MaxHops = 64
	}
	s.mu.RLock()
	d, ok := s.hopSets[req.Dataset]
	var exec core.ExecOptions
	if ok {
		exec = d.exec
	}
	s.mu.RUnlock()
	if !ok {
		s.writeError(w, r, http.StatusNotFound, apiError{Code: codeNotFound, Message: fmt.Sprintf("unknown hop dataset %q", req.Dataset)})
		return
	}
	v1 := isV1(r)
	explain := wantsExplain(r)
	s.serveIdempotent(w, r, req.Dataset, req.Analyst, req.IdempotencyKey,
		func(ctx context.Context) (int, []byte, bool) {
			return s.executeMonitorAverages(ctx, v1, explain, d, exec, &req)
		})
}

func (s *Server) executeMonitorAverages(ctx context.Context, v1, explain bool, d *hopDataset, exec core.ExecOptions, req *HopAveragesRequest) (int, []byte, bool) {
	run := s.beginQuery(ctx, "/query/monitoravgs", "monitoravgs", req.Dataset, req.Analyst, req.Epsilon, req.IdempotencyKey, d.policy)
	s.mu.RLock()
	records := d.records
	s.mu.RUnlock()
	q := core.NewQueryableFor(records, run.agent, s.src).
		WithRecorder(run.prof).WithExecOptions(exec).WithContext(ctx)
	keys := make([]int32, d.monitors)
	for i := range keys {
		keys[i] = int32(i)
	}
	parts := core.Partition(q, keys, func(rec trace.HopRecord) int32 { return rec.Monitor })
	averages := make([]float64, d.monitors)
	for m, key := range keys {
		avg, err := core.NoisyAverageScaled(parts[key], req.Epsilon, req.MaxHops,
			func(rec trace.HopRecord) float64 { return float64(rec.Hops) })
		if err != nil {
			return s.failQuery(run, v1, err)
		}
		averages[m] = avg
	}
	resp := HopAveragesResponse{
		Averages:  averages,
		Spent:     d.policy.SpentBy(req.Analyst),
		Remaining: finiteOrUnlimited(d.policy.RemainingFor(req.Analyst)),
	}
	prof := s.finishQuery(run, http.StatusOK, nil)
	if explain {
		resp.Profile = prof.Redact()
	}
	return http.StatusOK, marshalJSON(resp), true
}

// decodeJSON decodes a strict JSON body, writing a 400 on failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := jsonDecoder(r)
	if err := dec.Decode(v); err != nil {
		s.writeError(w, r, http.StatusBadRequest, apiError{Code: codeBadRequest, Message: "bad request: " + err.Error()})
		return false
	}
	return true
}
