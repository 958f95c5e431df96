package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"asdsim/internal/cluster"
	"asdsim/internal/cluster/rpc"
	"asdsim/internal/farm"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

const (
	// serviceBudget and benchesPerJob size a job: 2 benchmarks x 4
	// modes at 20k instructions, small enough that per-cell set-up,
	// HTTP/JSON and the store dominate.
	serviceBudget = 20_000
	benchesPerJob = 2
	// pollEvery is the clients' GET /jobs/{id} interval; a job still
	// running after jobTimeout counts as failed, so a stuck server
	// cannot stall the benchmark.
	pollEvery  = 2 * time.Millisecond
	jobTimeout = 60 * time.Second
	// fixedWrites is how many leading write jobs form the deterministic
	// cell set; together they cover every benchmark exactly once.
	fixedWrites = 15
)

// jobMix is the seeded job sequence the clients share. Two of every
// three jobs are writes: a fresh matrix of the next benchmarks in a
// seeded order, with a fresh derived seed, which the farm simulates and
// appends. The third is a read: a repeat of a completed write, which
// the farm serves from its store. With exactly half reads the median
// job would sit on the boundary between the fast reads and the slower
// writes and swing from run to run; with a third it sits inside the
// writes.
type jobMix struct {
	seed  uint64
	order []string

	mu     sync.Mutex
	rng    *rand.Rand
	next   int
	writes int
	done   []farm.Matrix
}

type job struct {
	index    int
	write    bool
	writeIdx int
	m        farm.Matrix
}

func newJobMix(seed uint64) *jobMix {
	rng := rand.New(rand.NewSource(int64(seed)))
	order := workload.Names()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &jobMix{seed: seed, order: order, rng: rng}
}

// writeMatrix is the w-th write job's matrix.
func (x *jobMix) writeMatrix(w int) farm.Matrix {
	n := len(x.order)
	var benches []string
	for i := 0; i < benchesPerJob; i++ {
		benches = append(benches, x.order[(benchesPerJob*w+i)%n])
	}
	return farm.Matrix{Benchmarks: benches, Budget: serviceBudget,
		Seed: farm.DeriveSeed(x.seed, fmt.Sprintf("write-%d", w), sim.NP)}
}

func (x *jobMix) take() job {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := x.next
	x.next++
	if i%3 == 2 && len(x.done) > 0 {
		return job{index: i, m: x.done[x.rng.Intn(len(x.done))]}
	}
	w := x.writes
	x.writes++
	return job{index: i, write: true, writeIdx: w, m: x.writeMatrix(w)}
}

func (x *jobMix) completed(m farm.Matrix) {
	x.mu.Lock()
	x.done = append(x.done, m)
	x.mu.Unlock()
}

// cellCheck is what a client keeps of one returned outcome.
type cellCheck struct {
	spec   farm.Spec
	err    string
	instr  uint64
	digest string
	result *sim.Result // kept for the fixed write jobs only
}

// jobResult is one client-observed job.
type jobResult struct {
	job       job
	problem   string
	latencyMs float64
	cells     []cellCheck
	resumed   int
	submitMs  float64
	pollLagMs float64
	lagOK     bool
}

// serviceEnv is an in-process farm server: asdfarm serve -role=local
// (a Pool) or -role=coordinator with loopback-HTTP workers.
type serviceEnv struct {
	base      string
	hc        *http.Client
	srv       *http.Server
	api       *farm.Server
	serveDone chan error
	store     *farm.Store
	dir       string

	pool *farm.Pool // local role

	coord       *cluster.Coordinator // coordinator role
	workers     []*cluster.Worker
	workerPools []*farm.Pool
	transports  []*tracedTransport
	stopWorkers context.CancelFunc
	workerWG    sync.WaitGroup
}

// openService sets the server up and returns once the first job could
// be issued: the listener answers and, for the cluster, every worker
// has registered. A non-nil tracer instruments the pools, the runner
// and the workers' transport.
func (b *bench) openService(clustered bool, tr *farmTracer) (*serviceEnv, time.Duration, error) {
	e := &serviceEnv{dir: b.scratchDir("store")}
	start := time.Now()
	var err error
	if e.store, err = farm.OpenStore(e.dir); err != nil {
		return nil, 0, err
	}
	opts := func(workers int) farm.Options {
		o := farm.Options{Workers: workers}
		if tr != nil {
			o.Instrument = tr.instrument
		}
		return o
	}
	mux := http.NewServeMux()
	if clustered {
		e.coord = cluster.New(cluster.Options{Store: e.store})
		var runner farm.Runner = e.coord
		if tr != nil {
			runner = tracedCoordinator{tracedRunner{e.coord, tr}, e.coord}
		}
		e.api = farm.NewServerFor(runner, e.store)
		mux.Handle(rpc.Route, rpc.Handler(e.coord))
		mux.Handle("/", e.api.Handler())
	} else {
		e.pool = farm.New(opts(b.nproc))
		var runner farm.Runner = e.pool
		if tr != nil {
			runner = tracedRunner{e.pool, tr}
		}
		e.api = farm.NewServerFor(runner, e.store)
		mux.Handle("/", e.api.Handler())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.store.Close()
		return nil, 0, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: mux}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * b.nproc}}

	if clustered {
		ctx, cancel := context.WithCancel(context.Background())
		e.stopWorkers = cancel
		for i := 0; i < b.nproc; i++ {
			name := fmt.Sprintf("w%d", i)
			var t cluster.Transport = rpc.New(e.base)
			if tr != nil {
				tt := &tracedTransport{next: t, spans: tr.spans}
				e.transports = append(e.transports, tt)
				t = tt
			}
			pool := farm.New(opts(1))
			w := &cluster.Worker{Transport: t, Pool: pool, Name: name, Spans: span.NewRecorder(name, time.Now)}
			e.workerPools = append(e.workerPools, pool)
			e.workers = append(e.workers, w)
			e.workerWG.Add(1)
			go func() {
				defer e.workerWG.Done()
				w.Run(ctx)
			}()
		}
		for e.coord.Workers() < b.nproc {
			if time.Since(start) > 30*time.Second {
				e.close()
				return nil, 0, errors.New("workers did not register within 30s")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	resp, err := e.hc.Get(e.base + "/metrics")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /metrics: %s", resp.Status)
		}
	}
	if err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

// close stops the workers, the server and the pools, waits for each,
// and removes the store.
func (e *serviceEnv) close() error {
	if e.stopWorkers != nil {
		e.stopWorkers()
		e.workerWG.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.api.Shutdown(ctx)
	// Every client and worker has finished, so nothing is in flight;
	// Close also drops connections a cancelled worker dialled but never
	// used, which Shutdown would wait seconds for.
	if serr := e.srv.Close(); err == nil {
		err = serr
	}
	if serr := <-e.serveDone; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	e.hc.CloseIdleConnections()
	for _, p := range e.workerPools {
		p.Close()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(e.dir)
	return err
}

func (e *serviceEnv) traceCacheStats() workload.TraceCacheStats {
	if e.pool != nil {
		return e.pool.TraceCacheStats()
	}
	var tc workload.TraceCacheStats
	for _, p := range e.workerPools {
		s := p.TraceCacheStats()
		tc.Hits += s.Hits
		tc.Misses += s.Misses
	}
	return tc
}

// statusView is the part of GET /jobs/{id} the clients read.
type statusView struct {
	Job struct {
		State   string `json:"state"`
		Total   int    `json:"total"`
		Failed  int    `json:"failed"`
		Resumed int    `json:"resumed"`
	} `json:"job"`
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runJob submits one job, polls it until done, and fetches and checks
// its canonical outcomes.
func (e *serviceEnv) runJob(j job, tr *farmTracer, keep bool) jobResult {
	r := jobResult{job: j}
	specs, err := j.m.Specs()
	if err != nil {
		r.problem = err.Error()
		return r
	}
	body, err := json.Marshal(j.m)
	if err != nil {
		r.problem = err.Error()
		return r
	}
	t0 := time.Now()
	resp, err := e.hc.Post(e.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.problem = err.Error()
		return r
	}
	var sub struct {
		ID   string `json:"id"`
		Runs int    `json:"runs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t1 := time.Now()
	r.submitMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	if err != nil || resp.StatusCode != http.StatusAccepted {
		r.problem = fmt.Sprintf("POST /jobs: %s %v", resp.Status, err)
		return r
	}
	var st statusView
	for {
		if err := getJSON(e.hc, e.base+"/jobs/"+sub.ID+"?limit=1", &st); err != nil {
			r.problem = err.Error()
			return r
		}
		if st.Job.State != "running" {
			break
		}
		if time.Since(t0) > jobTimeout {
			r.problem = fmt.Sprintf("job %s still running after %v", sub.ID, jobTimeout)
			return r
		}
		time.Sleep(pollEvery)
	}
	done := time.Now()
	r.latencyMs = float64(done.Sub(t0).Nanoseconds()) / 1e6
	if tr != nil {
		tr.spans.add(sub.ID, "client.submit", "client.job", t0, t1)
		tr.spans.add(sub.ID, "client.job", "", t0, done)
		if ret, ok := tr.takeReturn(batchSignature(specs)); ok {
			r.pollLagMs, r.lagOK = float64(done.Sub(ret).Nanoseconds())/1e6, true
		}
	}
	if st.Job.State != "done" || st.Job.Failed != 0 || st.Job.Total != len(specs) {
		r.problem = fmt.Sprintf("job %s ended %s with %d/%d failed", sub.ID, st.Job.State, st.Job.Failed, st.Job.Total)
		return r
	}
	r.resumed = st.Job.Resumed
	var outs []farm.CanonicalOutcome
	if err := getJSON(e.hc, e.base+"/jobs/"+sub.ID+"?format=outcomes", &outs); err != nil {
		r.problem = err.Error()
		return r
	}
	byKey := map[string]farm.CanonicalOutcome{}
	for _, o := range outs {
		byKey[o.Key] = o
	}
	for _, s := range specs {
		o, ok := byKey[s.Key()]
		c := cellCheck{spec: s}
		switch {
		case !ok:
			c.err = "missing from the job's outcomes"
		case o.Error != "" || o.Result == nil:
			c.err = "failed: " + o.Error
		default:
			c.instr = o.Result.Instructions
			c.digest = resultDigest(o.Result)
			if keep {
				c.result = o.Result
			}
		}
		r.cells = append(r.cells, c)
	}
	return r
}

// serviceLoop runs nproc closed-loop clients until d has passed; each
// sends its next job only after the previous one is done.
func (b *bench) serviceLoop(e *serviceEnv, mix *jobMix, d time.Duration, tr *farmTracer) ([]jobResult, windowStats) {
	var (
		mu  sync.Mutex
		out []jobResult
		wg  sync.WaitGroup
	)
	w := beginWindow()
	deadline := time.Now().Add(d)
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := mix.take()
				r := e.runJob(j, tr, j.write && j.writeIdx < fixedWrites)
				if j.write && r.problem == "" {
					mix.completed(j.m)
				}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ws := w.end()
	sort.Slice(out, func(i, k int) bool { return out[i].job.index < out[k].job.index })
	return out, ws
}

// checkJobs applies the output checks to every job in job order and
// returns the pass's throughput figures.
func (b *bench) checkJobs(jobs []jobResult, wall time.Duration) passes {
	var p passes
	for _, r := range jobs {
		ok := r.problem == ""
		why := r.problem
		for _, c := range r.cells {
			if problem := b.cellProblem(c.spec, c.err, c.instr, c.digest); problem != "" {
				ok, why = false, problem
			}
			if r.job.write {
				p.freshInstr += c.instr
			}
		}
		b.op(ok, "job %d: %s", r.job.index, why)
		p.cells += len(r.cells)
		p.jobMs = append(p.jobMs, r.latencyMs)
	}
	sec := wall.Seconds()
	p.minstrPerS = []float64{float64(p.freshInstr) / sec / 1e6}
	p.cellsPerS = []float64{float64(p.cells) / sec}
	return p
}

// fixedSet returns the accuracy set's specs and the results the server
// returned for them, and checks each against serial sim.Run: the local
// and cluster roles must both reproduce the simulator bit for bit.
func (b *bench) fixedSet(jobs []jobResult) ([]farm.Spec, []*sim.Result) {
	got := map[string]*sim.Result{}
	for _, r := range jobs {
		for _, c := range r.cells {
			if c.result != nil {
				got[c.spec.Key()] = c.result
			}
		}
	}
	var specs []farm.Spec
	var results []*sim.Result
	for _, s := range accuracySpecs(b.seed) {
		res := got[s.Key()]
		if !b.op(res != nil, "%s of the accuracy set did not complete during the run", specName(s)) {
			continue
		}
		ref, err := sim.Run(s.Benchmark, s.Config)
		b.op(err == nil && resultDigest(&ref) == resultDigest(res),
			"%s of the accuracy set differs from serial sim.Run", specName(s))
		specs = append(specs, s)
		results = append(results, res)
	}
	return specs, results
}

// accuracySpecs is the cells of the first fixedWrites write jobs: every
// benchmark under all four modes at the service budget.
func accuracySpecs(seed uint64) []farm.Spec {
	mix := newJobMix(seed)
	var specs []farm.Spec
	for w := 0; w < fixedWrites; w++ {
		ss, err := mix.writeMatrix(w).Specs()
		if err != nil {
			panic(err) // the matrix names registered benchmarks only
		}
		specs = append(specs, ss...)
	}
	return specs
}

func runService(b *bench) error { return b.runServer(false) }
func runCluster(b *bench) error { return b.runServer(true) }

func (b *bench) runServer(clustered bool) error {
	setup := &setupSampler{fn: func() (time.Duration, error) {
		e, d, err := b.openService(clustered, nil)
		if err != nil {
			return 0, err
		}
		return d, e.close()
	}}
	if !b.traced {
		if err := setup.burst(); err != nil {
			return err
		}
	}
	var untracedRate float64
	if b.traced {
		e, _, err := b.openService(clustered, nil)
		if err != nil {
			return err
		}
		jobs, ws := b.serviceLoop(e, newJobMix(b.seed), b.untracedPart(), nil)
		if err := e.close(); err != nil {
			return err
		}
		untracedRate = median(b.checkJobs(jobs, ws.wall).cellsPerS)
	}
	var tr *farmTracer
	measure := b.seconds
	if b.traced {
		tr = newFarmTracer(b.spans)
		measure = b.tracedPart()
	}
	e, setupTime, err := b.openService(clustered, tr)
	if err != nil {
		return err
	}
	setup.times = append(setup.times, setupTime.Seconds())
	mix := newJobMix(b.seed)
	jobs, ws := b.serviceLoop(e, mix, measure, tr)
	lr := &layerRun{traceCache: e.traceCacheStats(), pass: ws, untracedRate: untracedRate}
	if clustered && tr != nil {
		for i, w := range e.workers {
			lr.idlePolls += w.Stats().IdlePolls()
			lr.leased += int(w.Stats().Completed())
			calls := e.transports[i].callTimes()
			lr.rpc = append(lr.rpc, calls...)
			lr.rpcCalls += len(calls)
		}
		lr.leaseWait = leaseWaits(e.coord, jobs)
	}
	if err := e.close(); err != nil {
		return err
	}
	p := b.checkJobs(jobs, ws.wall)
	p.win = ws
	specs, results := b.fixedSet(jobs)
	b.setDigest(keysOf(specs))
	if b.traced {
		first, err := mix.writeMatrix(0).Specs()
		if err != nil {
			return err
		}
		lr.cells, lr.results, lr.replay = specs, results, first
		lr.tracedRate = median(p.cellsPerS)
		lr.queueWait, lr.exec = tr.farmTimes()
		for _, r := range jobs {
			lr.resumed += r.resumed
			lr.outcomes += len(r.cells)
			lr.submit = append(lr.submit, r.submitMs)
			if r.lagOK {
				lr.pollLag = append(lr.pollLag, r.pollLagMs)
			}
		}
		return b.reportLayers(lr)
	}
	if err := setup.burst(); err != nil {
		return err
	}
	cr := cellResults{}
	for i, s := range specs {
		cr.add(s.Benchmark, s.Mode, results[i])
	}
	return b.reportEndToEnd(setup.times, p, cr)
}

// leaseWaits reads the coordinator's spans for the write jobs' cells:
// the time from each task's submission ("job" span) to its first lease.
func leaseWaits(c *cluster.Coordinator, jobs []jobResult) []float64 {
	var keys []string
	for _, r := range jobs {
		if r.job.write {
			for _, cc := range r.cells {
				keys = append(keys, cc.spec.Key())
			}
		}
	}
	first := map[string]int64{}
	lease := map[string]int64{}
	for _, s := range c.Spans(keys) {
		switch s.Name {
		case "job":
			first[s.TraceID] = s.StartUS
		case "lease":
			if v, ok := lease[s.TraceID]; !ok || s.StartUS < v {
				lease[s.TraceID] = s.StartUS
			}
		}
	}
	var out []float64
	for id, start := range first {
		if l, ok := lease[id]; ok {
			out = append(out, float64(l-start)/1e3)
		}
	}
	return out
}
