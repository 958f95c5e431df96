package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	prom "asdsim/internal/metrics"
	"asdsim/internal/sim"
)

// startTestServer wires a stub-backed pool into an httptest server.
func startTestServer(t *testing.T, run RunFunc) *httptest.Server {
	t.Helper()
	pool := New(Options{Workers: 4, Backoff: time.Millisecond, Run: run})
	srv := httptest.NewServer(NewServerFor(pool, nil).Handler())
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getScrape fetches a Prometheus exposition and checks its grammar.
func getScrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := prom.Lint(body); err != nil {
		t.Fatalf("scrape fails grammar lint: %v\n%s", err, body)
	}
	return string(body)
}

// Submit a matrix, poll to completion, and check status, aggregated
// gains and metrics.
func TestServerJobLifecycle(t *testing.T) {
	// NP is slower than PMS so the aggregate gain is positive and
	// deterministic: NP 2000 cycles, PS 1500, MS 1200, PMS 1000.
	cyclesByMode := map[sim.Mode]uint64{sim.NP: 2000, sim.PS: 1500, sim.MS: 1200, sim.PMS: 1000}
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		c := cyclesByMode[s.Mode]
		return sim.Result{Cycles: c, Instructions: 2 * c, IPC: 2}, nil
	})

	resp := postJSON(t, srv.URL+"/jobs", Matrix{
		Benchmarks: []string{"GemsFDTD", "milc"}, Budget: 5000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decode[map[string]any](t, resp)
	id, _ := sub["id"].(string)
	if id == "" || sub["runs"].(float64) != 8 {
		t.Fatalf("submit response %v", sub)
	}

	type status struct {
		Job   jobSummary   `json:"job"`
		Gains []benchGains `json:"gains"`
		Runs  []runView    `json:"runs"`
	}
	var st status
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st = decode[status](t, r)
		if st.Job.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st.Job)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Job.Total != 8 || st.Job.Done != 8 || st.Job.Failed != 0 {
		t.Fatalf("summary %+v", st.Job)
	}
	if len(st.Gains) != 2 {
		t.Fatalf("gains for %d benchmarks, want 2", len(st.Gains))
	}
	for _, g := range st.Gains {
		if g.PMSvsNP == nil || *g.PMSvsNP < 99 || *g.PMSvsNP > 101 {
			t.Errorf("%s PMS-vs-NP = %v, want ~100%%", g.Benchmark, g.PMSvsNP)
		}
	}
	if len(st.Runs) != 8 || st.Runs[0].Benchmark != "GemsFDTD" {
		t.Errorf("runs misshapen: %d rows", len(st.Runs))
	}

	scrape := getScrape(t, srv.URL+"/metrics")
	for _, line := range []string{"\nfarm_runs_completed_total 8\n", "\nfarm_workers 4\n"} {
		if !strings.Contains(scrape, line) {
			t.Errorf("scrape missing %q:\n%s", line, scrape)
		}
	}

	lresp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]jobSummary](t, lresp)
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("job list %+v", list)
	}
}

// Bad requests and unknown jobs get proper status codes.
func TestServerErrors(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})

	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"no-such-bench"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// POST /jobs bodies are bounded: an oversize body is refused with 413
// before it is buffered, while an ordinary matrix is still accepted.
func TestServerSubmitBodyBound(t *testing.T) {
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		return fakeResult(1), nil
	})

	huge := `{"benchmarks":["` + strings.Repeat("a", maxSubmitBytes) + `"]}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"GemsFDTD"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal matrix: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// Cancelling a running job stops it without finishing the matrix.
func TestServerCancel(t *testing.T) {
	release := make(chan struct{})
	srv := startTestServer(t, func(ctx context.Context, s Spec) (sim.Result, error) {
		select {
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		case <-release:
			return fakeResult(1), nil
		}
	})

	resp := postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"GemsFDTD"}})
	sub := decode[map[string]any](t, resp)
	id := sub["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sum := decode[jobSummary](t, dresp)
	if sum.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", sum.State)
	}
	close(release)

	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[map[string]any](t, r)
		job := st["job"].(map[string]any)
		if job["done"].(float64) == job["total"].(float64) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(fmt.Sprintf("cancelled job never drained: %v", job))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Soak the job table: past maxFinishedJobs finished jobs the oldest
// finished ones are evicted (404 on GET and DELETE) while the table
// stays bounded, and a running job is never evicted however old it is.
func TestServerJobTableBounded(t *testing.T) {
	release := make(chan struct{})
	pool := New(Options{Workers: 2, Backoff: time.Millisecond, Run: func(ctx context.Context, s Spec) (sim.Result, error) {
		if s.Benchmark == "milc" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return sim.Result{Cycles: 10, Instructions: 20, IPC: 2}, nil
	}})
	api := NewServerFor(pool, nil)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		close(release)
		srv.Close()
		pool.Close()
	})
	status := func(method, id string) int {
		req, _ := http.NewRequest(method, srv.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	tableSize := func() int {
		api.mu.Lock()
		defer api.mu.Unlock()
		return len(api.jobs)
	}

	type submitted struct{ ID string }
	running := decode[submitted](t, postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"milc"}, Modes: []string{"NP"}})).ID
	const quick = maxFinishedJobs + 50
	ids := make([]string, quick)
	for i := range ids {
		ids[i] = decode[submitted](t, postJSON(t, srv.URL+"/jobs", Matrix{Benchmarks: []string{"tpcc"}, Modes: []string{"NP"}})).ID
		for decode[struct{ Job jobSummary }](t, get("/jobs/"+ids[i])).Job.State != "done" {
			time.Sleep(100 * time.Microsecond)
		}
		// The running job, this one, and the finished ones kept.
		if n := tableSize(); n > maxFinishedJobs+2 {
			t.Fatalf("after %d jobs the table holds %d, want <= %d", i+1, n, maxFinishedJobs+2)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for tableSize() != maxFinishedJobs+1 {
		if time.Now().After(deadline) {
			t.Fatalf("table holds %d jobs, want %d", tableSize(), maxFinishedJobs+1)
		}
		time.Sleep(time.Millisecond)
	}

	if got := status(http.MethodGet, running); got != http.StatusOK {
		t.Fatalf("GET running %s = %d, want 200", running, got)
	}
	for _, id := range ids[:quick-maxFinishedJobs] {
		if got := status(http.MethodGet, id); got != http.StatusNotFound {
			t.Fatalf("GET evicted %s = %d, want 404", id, got)
		}
		if got := status(http.MethodDelete, id); got != http.StatusNotFound {
			t.Fatalf("DELETE evicted %s = %d, want 404", id, got)
		}
	}
	for _, id := range ids[quick-maxFinishedJobs:] {
		if got := status(http.MethodGet, id); got != http.StatusOK {
			t.Fatalf("GET kept %s = %d, want 200", id, got)
		}
	}
	list := decode[[]jobSummary](t, get("/jobs"))
	if len(list) != maxFinishedJobs+1 || list[0].ID != running {
		t.Fatalf("GET /jobs lists %d jobs starting %q, want %d starting %q", len(list), list[0].ID, maxFinishedJobs+1, running)
	}
}
