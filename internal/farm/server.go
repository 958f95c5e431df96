package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asdsim/internal/mem"
	"asdsim/internal/obs/prov"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
)

// Runner is the execution engine behind a Server: the in-process Pool,
// or the cluster Coordinator fanning specs out to remote workers. Both
// share RunBatch's contract — outcomes in spec order, deterministic at
// any concurrency, store-resumed where possible.
type Runner interface {
	RunBatch(ctx context.Context, specs []Spec, store *Store, onDone func(Outcome)) ([]Outcome, error)
	Metrics() *Metrics
	Workers() int
}

// Server exposes a Runner over HTTP:
//
//	POST   /jobs       submit a Matrix; returns {"id": ..., "runs": N}
//	GET    /jobs       list job summaries (?limit=, ?after=<job id>)
//	GET    /jobs/{id}  job status, aggregated gains, per-run results
//	                   (?bench=, ?mode=, ?engine=, ?limit=, ?after=<key>;
//	                   ?format=outcomes for the canonical comparison set)
//	DELETE /jobs/{id}  cancel a running job
//	GET    /metrics    Prometheus scrape of the runner's counters
//
// A non-nil store gives every submitted job resume-from-partial-results
// against the same store the CLI writes.
type Server struct {
	runner     Runner
	store      *Store
	pprof      bool
	telemetry  *Telemetry
	provenance *Provenance
	// sseInterval is the /events push period; tests shrink it.
	sseInterval time.Duration

	mu   sync.Mutex
	seq  int
	jobs map[string]*serverJob
	// finished holds the ids of jobs in s.jobs that have finished, oldest
	// first; past maxFinishedJobs the oldest leave the table.
	finished []string
	shutdown chan struct{} // closed by Shutdown; nil until first Handler use
}

// maxFinishedJobs bounds how many finished jobs the server remembers, so
// a long-running server holds bounded memory however many jobs it
// serves. Running jobs are never evicted; an evicted job's id answers
// 404, and its outcomes stay in the store, where a resubmission of the
// same matrix finds them.
const maxFinishedJobs = 1024

// maxSubmitBytes bounds a POST /jobs body. A Matrix is a few lists of
// names and numbers, so anything near this size is malformed or hostile;
// it matches the cluster RPC envelope bound.
const maxSubmitBytes = 4 << 20

// serverJob tracks one submitted matrix through the pool.
type serverJob struct {
	id     string
	specs  []Spec
	cancel context.CancelFunc

	mu       sync.Mutex
	outcomes []Outcome // completion order
	state    string    // "running", "done", "cancelled"
	started  time.Time
	finished time.Time
}

// NewServerFor wraps any Runner — an in-process Pool or a cluster
// Coordinator — in the same HTTP API.
func NewServerFor(r Runner, store *Store) *Server {
	return &Server{runner: r, store: store, jobs: make(map[string]*serverJob),
		sseInterval: time.Second, shutdown: make(chan struct{})}
}

// AttachTelemetry registers the aggregator feeding the Prometheus
// depth/anomaly families, the dashboard sparklines and /flightrec. The
// caller wires t.Instrument into the pool's Options.
func (s *Server) AttachTelemetry(t *Telemetry) { s.telemetry = t }

// Telemetry returns the attached aggregator (nil when none).
func (s *Server) Telemetry() *Telemetry { return s.telemetry }

// AttachProvenance registers the collector feeding /explain, /diff, the
// dashboard's decision-timeline panel and the provenance Prometheus
// counters. The caller wires p.Attach into the pool's
// Options.Provenance.
func (s *Server) AttachProvenance(p *Provenance) { s.provenance = p }

// Provenance returns the attached collector (nil when none).
func (s *Server) Provenance() *Provenance { return s.provenance }

// Shutdown cancels every running job, wakes all /events streams so they
// terminate, and waits — up to ctx's deadline — for the jobs to reach a
// terminal state. Call it before http.Server.Shutdown so in-flight SSE
// responses end instead of holding the listener open.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	select {
	case <-s.shutdown:
	default:
		close(s.shutdown)
	}
	jobs := make([]*serverJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		settled := true
		for _, j := range jobs {
			j.mu.Lock()
			fin := !j.finished.IsZero()
			j.mu.Unlock()
			if !fin {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// EnablePprof mounts net/http/pprof profiling endpoints under
// /debug/pprof/ on the next Handler call. Off by default: the profiler
// exposes stacks and heap contents, so callers opt in (asdfarm serve
// -pprof).
func (s *Server) EnablePprof() { s.pprof = true }

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /flightrec", s.handleFlightrecList)
	mux.HandleFunc("GET /flightrec/{id}", s.handleFlightrecBundle)
	mux.HandleFunc("GET /explain/{key}", s.handleExplain)
	mux.HandleFunc("GET /diff/{a}/{b}", s.handleDiff)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var m Matrix
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&m); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("decode matrix: %w", err))
		return
	}
	specs, err := m.Specs()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &serverJob{specs: specs, cancel: cancel, state: "running", started: time.Now()}

	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()

	go func() {
		defer cancel()
		s.runner.RunBatch(ctx, specs, s.store, func(o Outcome) {
			j.mu.Lock()
			j.outcomes = append(j.outcomes, o)
			j.mu.Unlock()
		})
		// Finishing and retiring is one step under s.mu, so a client that
		// reads the job as finished also sees it counted for eviction.
		s.mu.Lock()
		j.mu.Lock()
		if j.state == "running" {
			j.state = "done"
		}
		j.finished = time.Now()
		j.mu.Unlock()
		s.retireLocked(j.id)
		s.mu.Unlock()
	}()

	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "runs": len(specs)})
}

// retireLocked records a finished job and evicts the oldest finished
// jobs beyond maxFinishedJobs. The caller holds s.mu.
func (s *Server) retireLocked(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// jobSummary is the wire form of a job's progress.
type jobSummary struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Total      int     `json:"total"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Resumed    int     `json:"resumed"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

func (j *serverJob) summary() jobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	sum := jobSummary{ID: j.id, State: j.state, Total: len(j.specs), Done: len(j.outcomes)}
	for i := range j.outcomes {
		if !j.outcomes[i].OK() {
			sum.Failed++
		}
		if j.outcomes[i].Resumed {
			sum.Resumed++
		}
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	sum.ElapsedSec = end.Sub(j.started).Seconds()
	return sum
}

func (s *Server) job(id string) *serverJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// pageParams reads the shared ?limit= and ?after= pagination query
// parameters. limit <= 0 (or absent) means unbounded; after names the
// last item of the previous page by its ID in the deterministic order.
func pageParams(r *http.Request) (limit int, after string, err error) {
	q := r.URL.Query()
	after = q.Get("after")
	if s := q.Get("limit"); s != "" {
		limit, err = strconv.Atoi(s)
		if err != nil {
			return 0, "", fmt.Errorf("bad limit %q: %w", s, err)
		}
	}
	return limit, after, nil
}

// paginate slices items to the page after the element with the given
// id, capped at limit. The id of each element comes from idOf. An
// unknown ?after= cursor yields an empty page rather than an error:
// cursors outlive the items they point at (a deleted job is a valid
// place to resume from only if we still know it; we don't pretend to).
func paginate[T any](items []T, limit int, after string, idOf func(T) string) []T {
	start := 0
	if after != "" {
		start = len(items)
		for i, it := range items {
			if idOf(it) == after {
				start = i + 1
				break
			}
		}
	}
	items = items[start:]
	if limit > 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit, after, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	ids := s.sortedJobIDs() // creation order: deterministic pagination
	jobs := make([]*serverJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	sums := make([]jobSummary, len(jobs))
	for i, j := range jobs {
		sums[i] = j.summary()
	}
	sums = paginate(sums, limit, after, func(j jobSummary) string { return j.ID })
	writeJSON(w, http.StatusOK, sums)
}

// runView is one run's compact result row.
type runView struct {
	Key       string  `json:"key"`
	Benchmark string  `json:"benchmark"`
	Mode      string  `json:"mode"`
	Engine    string  `json:"engine,omitempty"`
	Cycles    uint64  `json:"cycles,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	Attempts  int     `json:"attempts"`
	WallMS    float64 `json:"wall_ms"`
	Resumed   bool    `json:"resumed,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// benchGains aggregates one benchmark's paper comparisons, present when
// the needed modes completed.
type benchGains struct {
	Benchmark string   `json:"benchmark"`
	PMSvsNP   *float64 `json:"pms_vs_np_pct,omitempty"`
	MSvsNP    *float64 `json:"ms_vs_np_pct,omitempty"`
	PMSvsPS   *float64 `json:"pms_vs_ps_pct,omitempty"`
}

// runsAndGains shapes a job's outcomes into sorted run rows and the
// per-benchmark paper-comparison gains; shared by /jobs/{id} and the
// SSE stream.
func runsAndGains(outcomes []Outcome) ([]runView, []benchGains) {
	runs := make([]runView, len(outcomes))
	cycles := map[string]map[sim.Mode]uint64{}
	for i, o := range outcomes {
		runs[i] = runView{Key: o.Key, Benchmark: o.Benchmark, Mode: o.Mode.String(), Engine: o.Engine,
			Attempts: o.Attempts, WallMS: o.WallMS, Resumed: o.Resumed, Error: o.Err}
		if o.OK() {
			runs[i].Cycles = o.Result.Cycles
			runs[i].IPC = o.Result.IPC
			if cycles[o.Benchmark] == nil {
				cycles[o.Benchmark] = map[sim.Mode]uint64{}
			}
			cycles[o.Benchmark][o.Mode] = o.Result.Cycles
		}
	}
	sort.Slice(runs, func(a, b int) bool {
		if runs[a].Benchmark != runs[b].Benchmark {
			return runs[a].Benchmark < runs[b].Benchmark
		}
		if runs[a].Mode != runs[b].Mode {
			return runs[a].Mode < runs[b].Mode
		}
		return runs[a].Key < runs[b].Key // total order: stable pagination cursors
	})

	gain := func(base, res uint64) *float64 {
		if base == 0 || res == 0 {
			return nil
		}
		g := 100 * (float64(base)/float64(res) - 1)
		return &g
	}
	benches := make([]string, 0, len(cycles))
	for b := range cycles {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	gains := make([]benchGains, 0, len(benches))
	for _, b := range benches {
		c := cycles[b]
		g := benchGains{Benchmark: b,
			PMSvsNP: gain(c[sim.NP], c[sim.PMS]),
			MSvsNP:  gain(c[sim.NP], c[sim.MS]),
			PMSvsPS: gain(c[sim.PS], c[sim.PMS])}
		if g.PMSvsNP != nil || g.MSvsNP != nil || g.PMSvsPS != nil {
			gains = append(gains, g)
		}
	}
	return runs, gains
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	outcomes := append([]Outcome(nil), j.outcomes...)
	j.mu.Unlock()

	switch r.URL.Query().Get("format") {
	case "outcomes":
		// The canonical comparison set: what `asdfarm run -outcomes`
		// writes locally, so distributed and serial runs byte-diff.
		w.Header().Set("Content-Type", "application/json")
		WriteCanonical(w, outcomes)
		return
	case "trace":
		// The merged Perfetto/Chrome trace of the job's distributed
		// lifecycle: coordinator spans plus every worker span shipped
		// back with completions.
		ts, ok := s.runner.(TraceSource)
		if !ok {
			writeErr(w, http.StatusNotImplemented,
				fmt.Errorf("runner does not collect distributed spans (not a cluster coordinator)"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		span.WriteChromeTrace(w, ts.Spans(jobKeys(j)))
		return
	}

	limit, after, err := pageParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	runs, gains := runsAndGains(outcomes)
	runs = filterRuns(runs, r)
	runs = paginate(runs, limit, after, func(v runView) string { return v.Key })

	resp := map[string]any{
		"job":   j.summary(),
		"gains": gains,
		"runs":  runs,
	}
	if cs := s.clusterSnapshot(); cs != nil {
		resp["lease_events"] = filterLeaseEvents(cs.LeaseEvents, jobKeys(j))
	}
	writeJSON(w, http.StatusOK, resp)
}

// jobKeys returns the job's spec keys (the trace handles of every cell
// it touches, including cache-served ones).
func jobKeys(j *serverJob) []string {
	keys := make([]string, len(j.specs))
	for i := range j.specs {
		keys[i] = j.specs[i].Key()
	}
	return keys
}

// filterLeaseEvents keeps the transitions belonging to the given spec
// keys, preserving ring (seq) order. Never nil: the field's presence
// tells a cluster client the feed exists.
func filterLeaseEvents(events []LeaseEvent, keys []string) []LeaseEvent {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	kept := []LeaseEvent{}
	for _, e := range events {
		if want[e.Key] {
			kept = append(kept, e)
		}
	}
	return kept
}

// filterRuns applies the ?bench=, ?mode= and ?engine= row filters.
// Values match the row's rendered fields exactly ("PMS", "asd", ...);
// an empty parameter is a wildcard.
func filterRuns(runs []runView, r *http.Request) []runView {
	q := r.URL.Query()
	bench, mode, engine := q.Get("bench"), q.Get("mode"), q.Get("engine")
	if bench == "" && mode == "" && engine == "" {
		return runs
	}
	kept := make([]runView, 0, len(runs))
	for _, v := range runs {
		if (bench == "" || v.Benchmark == bench) &&
			(mode == "" || v.Mode == mode) &&
			(engine == "" || v.Engine == engine) {
			kept = append(kept, v)
		}
	}
	return kept
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	if j.state == "running" {
		j.state = "cancelled"
	}
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, http.StatusOK, j.summary())
}

// handleMetrics serves the Prometheus text exposition, built fresh on
// every scrape. A ?format= parameter is ignored, so scrape URLs written
// as /metrics?format=prometheus keep working.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.buildRegistry()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WriteTo(w)
}

// handleFlightrecList returns the retained triage bundles' index: ID,
// run label and trigger, so a bundle can be fetched by ID.
func (s *Server) handleFlightrecList(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID       string `json:"id"`
		Label    string `json:"label"`
		Key      string `json:"key,omitempty"`
		Node     string `json:"node,omitempty"`
		TraceID  string `json:"trace_id,omitempty"`
		Detector string `json:"detector"`
		Detail   string `json:"detail"`
		Window   uint64 `json:"window"`
		Cycle    uint64 `json:"cycle"`
	}
	rows := []row{}
	if s.telemetry != nil {
		for _, b := range s.telemetry.Bundles() {
			rows = append(rows, row{ID: b.ID, Label: b.Bundle.Label,
				Key: b.Bundle.Key, Node: b.Bundle.Node, TraceID: b.Bundle.TraceID,
				Detector: b.Bundle.Trigger.Detector, Detail: b.Bundle.Trigger.Detail,
				Window: b.Bundle.Trigger.Window, Cycle: b.Bundle.Trigger.Cycle})
		}
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleFlightrecBundle serves one triage bundle: JSON by default, the
// human-readable report with ?format=report.
func (s *Server) handleFlightrecBundle(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.telemetry == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no telemetry attached"))
		return
	}
	b := s.telemetry.Bundle(id)
	if b == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such bundle %q", id))
		return
	}
	if r.URL.Query().Get("format") == "report" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		b.WriteReport(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b.WriteJSON(w)
}

// loadProvStream fetches one stored provenance stream by spec key,
// resolving unique key prefixes like the CLI (and git) do.
func (s *Server) loadProvStream(key string) (*prov.Stream, int, error) {
	if s.provenance == nil || s.provenance.Store() == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no provenance store attached")
	}
	ps := s.provenance.Store()
	st, ok, err := ps.Load(key)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if !ok {
		keys, kerr := ps.Keys()
		if kerr != nil {
			return nil, http.StatusInternalServerError, kerr
		}
		var match string
		for _, k := range keys {
			if strings.HasPrefix(k, key) {
				if match != "" {
					return nil, http.StatusBadRequest,
						fmt.Errorf("key prefix %q is ambiguous", key)
				}
				match = k
			}
		}
		if match == "" {
			return nil, http.StatusNotFound, fmt.Errorf("no provenance stream for key %q", key)
		}
		if st, ok, err = ps.Load(match); err != nil {
			return nil, http.StatusInternalServerError, err
		} else if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("no provenance stream for key %q", match)
		}
	}
	return st, http.StatusOK, nil
}

// handleExplain serves the lineage tree of one prefetch from a stored
// run's provenance sidecar: the last explainable prefetch by default,
// or ?line=0x..(&cycle=N) to pick one. ?format=json returns the
// structured lineage.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	st, status, err := s.loadProvStream(key)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	q := r.URL.Query()
	var line mem.Line
	cycle := ^uint64(0) // no ?cycle=: the line's newest generation
	if ls := q.Get("line"); ls != "" {
		v, perr := strconv.ParseUint(ls, 0, 64)
		if perr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad line %q: %w", ls, perr))
			return
		}
		line = mem.Line(v)
		if cs := q.Get("cycle"); cs != "" {
			if cycle, perr = strconv.ParseUint(cs, 0, 64); perr != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad cycle %q: %w", cs, perr))
				return
			}
		}
	} else {
		var ok bool
		if line, cycle, ok = prov.LastExplainable(st); !ok {
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("stream for %q records no explainable prefetch", key))
			return
		}
	}
	lin, err := prov.Explain(st, line, cycle)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if q.Get("format") == "json" {
		writeJSON(w, http.StatusOK, lin)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	lin.WriteTree(w)
}

// handleDiff attributes the outcome delta between two stored runs to
// their decision divergences: first diverging SLH epoch plus
// per-stream-length lifecycle deltas, with cycles/IPC context pulled
// from the outcome store when available. ?format=json returns the
// structured report.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	keyA, keyB := r.PathValue("a"), r.PathValue("b")
	a, status, err := s.loadProvStream(keyA)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	b, status, err := s.loadProvStream(keyB)
	if err != nil {
		writeErr(w, status, err)
		return
	}
	rep := prov.Diff(a, b)
	if s.store != nil {
		if o, ok := s.store.Lookup(keyA); ok && o.Result != nil {
			rep.CyclesA, rep.IPCA = o.Result.Cycles, o.Result.IPC
		}
		if o, ok := s.store.Lookup(keyB); ok && o.Result != nil {
			rep.CyclesB, rep.IPCB = o.Result.Cycles, o.Result.IPC
		}
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rep.WriteReport(w)
}
