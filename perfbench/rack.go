package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynaq"
	"dynaq/internal/fleet"
	"dynaq/internal/scenario"
	"dynaq/internal/server"
	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// dynaqd-rack: one closed-loop client drives an in-process coordinator over
// a loopback listener. Each round submits one sweep job — the
// mixed-transport rack, shortened to one simulated second, under three
// schemes on a fresh seed — and waits on its event stream for the terminal
// line. After the uncached pass every finished job is resubmitted
// cachedPasses times; those jobs are served from the cache.

const (
	rackFile = "scenarios/mixed_transports.json"
	// rackDurationS shortens the rack from 10 to 1 simulated second.
	rackDurationS = 1
	// cachedPasses is how often each finished job is resubmitted, so the
	// cached-path latencies have hundreds of samples.
	cachedPasses = 5
	// verifyJobs is how many jobs per run have every cell re-executed
	// through fleet.RunCellTo and byte-compared with the cached artifacts.
	verifyJobs = 4
	// rackWorkers is the coordinator's local pool: one cell at a time, so
	// the simulation holds one core and the Go runtime, the HTTP exchange
	// and the client share the other, rather than every thread contending
	// for the host's two.
	rackWorkers = 1
)

var rackSchemes = []string{"DynaQ", "PQL", "BestEffort"}

// coordinator is a running in-process dynaqd.
type coordinator struct {
	dir    string
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	// served is closed when the listener's Serve returns, with serveErr.
	served   chan struct{}
	serveErr error
}

func startCoordinator() (*coordinator, error) {
	dir, err := scratchDir("dynaqd")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: dir, Concurrency: rackWorkers, Version: dynaq.Version})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	c := &coordinator{
		dir:    dir,
		srv:    srv,
		http:   &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: gomaxprocs(), MaxIdleConnsPerHost: gomaxprocs()}},
		served: make(chan struct{}),
	}
	go func() {
		c.serveErr = c.http.Serve(ln)
		close(c.served)
	}()
	for {
		resp, err := c.client.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.served:
			c.stop()
			return nil, fmt.Errorf("coordinator listener: %w", c.serveErr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop shuts the coordinator and its listener down, waits for both, and
// removes the data directory.
func (c *coordinator) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := c.http.Shutdown(ctx)
	<-c.served
	if !errors.Is(c.serveErr, http.ErrServerClosed) && err == nil {
		err = c.serveErr
	}
	if serr := c.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	c.client.CloseIdleConnections()
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRun is one submission's outcome as the client saw it.
type jobRun struct {
	id       string
	state    string
	submitMs float64 // POST response time
	wall     sample  // submit to terminal line
}

// submit posts a job, follows its event stream to the terminal line and
// returns what the client saw. Spans go to tr under traceID.
func (c *coordinator) submit(body []byte, tr *tracer, traceID string, parent int) (jobRun, error) {
	var jr jobRun
	m := startMeter()
	sp := tr.start(traceID, "POST /v1/jobs", parent)
	resp, err := c.client.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return jr, err
	}
	var st server.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(sp)
	jr.submitMs = clock.Now().Sub(m.t0).Seconds() * 1e3
	if resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	if derr != nil {
		return jr, fmt.Errorf("POST /v1/jobs: %w", derr)
	}
	jr.id = st.ID
	sp = tr.start(traceID, "GET /v1/jobs/{id}/events", parent)
	resp, err = c.client.Get(c.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		tr.end(sp)
		return jr, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			Cell  int    `json:"cell"`
			Kind  string `json:"kind"`
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Cell != -1 || line.Kind != "job" {
			continue
		}
		if line.State == server.StateDone || line.State == server.StateFailed {
			jr.state = line.State
			break
		}
	}
	jr.wall = m.stop()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if jr.state == "" {
		return jr, fmt.Errorf("job %s: event stream ended without a terminal line", st.ID)
	}
	return jr, sc.Err()
}

// status fetches GET /v1/jobs/{id}.
func (c *coordinator) status(id string) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := c.client.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// spans fetches a job's coordinator trace.
func (c *coordinator) spans(id string) ([]trace.Span, error) {
	resp, err := c.client.Get(c.base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s/trace: %s", id, resp.Status)
	}
	return trace.ParseJSONL(resp.Body)
}

// counter reads one unlabelled counter from GET /metrics.
func (c *coordinator) counter(name string) (float64, error) {
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// sweepBody is the POST body of one sweep job.
func sweepBody(doc []byte, seed int64) []byte {
	body, _ := json.Marshal(server.Request{Scenario: doc, Schemes: rackSchemes, Seeds: []int64{seed}})
	return body
}

// rackRound is one round: an uncached job and its cached resubmissions.
type rackRound struct {
	seed   int64
	first  jobRun
	st     server.JobStatus
	cached []jobRun
	// spans is the coordinator's trace of the uncached job (traced phase).
	spans []trace.Span
}

// rackPhase is one measured phase: the uncached pass then the cached passes.
type rackPhase struct {
	rounds []*rackRound
	cells  int // cells the cached passes served
	hits   float64
}

func runRack(o opts) (*result, error) {
	res := newResult()
	doc, fields, err := scenarioDoc(rackFile, map[string]any{"duration_s": rackDurationS})
	if err != nil {
		return nil, err
	}
	rate, err := number(fields, "rate_gbps")
	if err != nil {
		return nil, err
	}
	base := o.seed * 1_000_000

	// Set-up: a fresh coordinator answering /healthz, the scenario loaded
	// and validated under every scheme, and one warm-up job. All but the
	// last coordinator are stopped again.
	var setup []sample
	var loads []float64
	var c *coordinator
	host.measure()
	for i := 0; i < setupReps; i++ {
		sm := startMeter()
		if c, err = startCoordinator(); err != nil {
			return nil, err
		}
		for _, scheme := range rackSchemes {
			l0 := clock.Now()
			seed := base
			if _, err := scenario.LoadWith(doc, scenario.Overrides{Scheme: scheme, Seed: &seed}); err != nil {
				c.stop()
				return nil, err
			}
			loads = append(loads, clock.Now().Sub(l0).Seconds()*1e3)
		}
		jr, err := c.submit(sweepBody(doc, base+900_000+int64(i)), nil, "", 0)
		if err == nil && jr.state != server.StateDone {
			err = fmt.Errorf("warm-up job %s ended %s", jr.id, jr.state)
		}
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, sm.stop())
		host.measure()
		if i < setupReps-1 {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if err := c.stop(); err != nil {
			logf("dynaqd-rack: stopping the coordinator: %v", err)
		}
	}()

	measured := o.seconds
	if o.trace {
		measured /= 2
	}
	untraced, err := rackMeasure(c, res, doc, base, measured, nil)
	if err != nil {
		return nil, err
	}
	if err := rackCheck(res, untraced, doc, rate*1e9); err != nil {
		return nil, err
	}
	urs := rackRounds(untraced)
	if !o.trace {
		setEndToEnd(res, setup, urs, float64(len(rackSchemes)), float64(len(rackSchemes)*rackFlows(fields)))
		logf("dynaqd-rack: %d rounds, %d cached resubmissions", len(untraced.rounds), len(untraced.rounds)*cachedPasses)
		return res, nil
	}

	// Traced phase: fresh seeds, CPU profile, coordinator traces, spans.
	tr := newTracer()
	var prof bytes.Buffer
	host.measure()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := rackMeasure(c, res, doc, base+500_000, measured, tr)
	pprof.StopCPUProfile()
	host.measure()
	if err != nil {
		return nil, err
	}
	if err := rackCheck(res, traced, doc, rate*1e9); err != nil {
		return nil, err
	}
	st, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	trs := rackRounds(traced)

	var submit, jobMs, cachedMs []float64
	var queueWait, cellExec, artifactWrite []float64
	for _, r := range traced.rounds {
		submit = append(submit, r.first.submitMs)
		jobMs = append(jobMs, r.first.wall.wall*1e3)
		for _, cr := range r.cached {
			cachedMs = append(cachedMs, cr.wall.wall*1e3)
		}
		for _, s := range r.spans {
			if s.Domain != trace.DomainWall || s.End == 0 {
				continue
			}
			ms := float64(s.End-s.Start) / 1e3
			switch s.Name {
			case "queue-wait":
				queueWait = append(queueWait, ms)
			case "run":
				cellExec = append(cellExec, ms)
			case "artifact-write":
				artifactWrite = append(artifactWrite, ms)
			}
		}
	}
	res.set("server.submit_ms", "ms", median(submit))
	res.set("server.queue_wait_ms", "ms", median(queueWait))
	res.set("server.cache_hit_ratio", "share", traced.hits/float64(traced.cells))
	res.set("server.cache_cells", "count", float64(traced.cells))
	res.set("server.job_p50_ms", "ms", median(jobMs))
	res.set("server.cached_job_p50_ms", "ms", median(cachedMs))
	if p90, beyond := percentile(cachedMs, 0.9); beyond >= 10 {
		res.set("server.cached_job_p90_ms", "ms", p90)
	}
	res.set("fleet.cell_exec_ms", "ms", median(cellExec))
	res.set("telemetry.artifact_write_ms", "ms", median(artifactWrite))

	// Counts from the first traced round's artifacts: a function of the
	// seed alone, so a speed-only change leaves them unchanged.
	first := traced.rounds[0].st
	counts := map[string]float64{}
	var artifactBytes float64
	for _, cell := range first.Cells {
		sums, err := readCounters(cell.ArtifactDir)
		if err != nil {
			return nil, err
		}
		for k, v := range sums {
			counts[k] += float64(v)
		}
		n, err := dirBytes(cell.ArtifactDir)
		if err != nil {
			return nil, err
		}
		artifactBytes += float64(n)
	}
	runS := urs.runS()
	pkts := counts["port_tx_packets_total"]
	res.set("telemetry.artifact_kb", "KB", artifactBytes/float64(len(first.Cells))/1e3)
	res.set("sim.events", "count", counts["sim_events_processed_total"])
	res.set("sim.events_per_s", "1/s", counts["sim_events_processed_total"]/runS)
	res.set("netsim.pkts", "count", pkts)
	if pkts > 0 {
		res.set("netsim.ns_per_pkt", "ns", runS*1e9/pkts)
		res.set("netsim.allocs_per_pkt", "count", urs.mallocs()/pkts)
	}
	res.set("transport.retransmits", "count", counts["transport_retransmits_total"])
	res.set("transport.timeouts", "count", counts["transport_timeouts_total"])
	res.set("buffer.drops", "count", counts["port_drops_total/admission"])
	res.set("core.adjustments", "count", counts["dynaq_adjustments_total"])
	res.set("runtime.gc_cpu_share", "share", urs.gcShare())
	res.set("runtime.mallocs", "count", urs.mallocs())
	res.set("scenario.load_ms", "ms", median(loads))
	setProfileShares(res, st)
	setOverhead(res, urs, trs)
	setHost(res, urs)
	if err := runLadder(res); err != nil {
		return nil, err
	}
	path, err := tr.write(fmt.Sprintf("dynaqd-rack-seed%d", o.seed))
	if err != nil {
		return nil, err
	}
	logf("dynaqd-rack: %d untraced and %d traced rounds; spans in %s", len(untraced.rounds), len(traced.rounds), path)
	fillPerLayer(res)
	return res, nil
}

// rackFlows counts the rack's long-lived flows per cell.
func rackFlows(fields map[string]any) int {
	specs, _ := fields["specs"].([]any)
	n := 0
	for _, s := range specs {
		if m, ok := s.(map[string]any); ok {
			if f, ok := m["flows"].(float64); ok {
				n += int(f)
			}
		}
	}
	return n
}

// rackMeasure runs the uncached pass for d, then the cached passes. An
// untraced phase times the reference kernel between jobs and after the
// phase; a traced one leaves that to its caller, outside the CPU profile.
func rackMeasure(c *coordinator, res *result, doc []byte, base int64, d time.Duration, tr *tracer) (*rackPhase, error) {
	ph := &rackPhase{}
	deadline := clock.Now().Add(d)
	for k := 0; k == 0 || clock.Now().Before(deadline); k++ {
		if tr == nil {
			host.tick()
		}
		r := &rackRound{seed: base + int64(k)}
		traceID := fmt.Sprintf("seed-%d", r.seed)
		rid := tr.start(traceID, "job", 0)
		res.Attempted++
		jr, err := c.submit(sweepBody(doc, r.seed), tr, traceID, rid)
		tr.end(rid)
		if err != nil || jr.state != server.StateDone {
			res.Failed++
			logf("dynaqd-rack: job for seed %d: state %q, error %v", r.seed, jr.state, err)
			continue
		}
		r.first = jr
		if r.st, err = c.status(jr.id); err != nil {
			return nil, err
		}
		if tr != nil {
			// Fetched now: a resubmission replaces the job's trace.
			if r.spans, err = c.spans(jr.id); err != nil {
				return nil, err
			}
		}
		ph.rounds = append(ph.rounds, r)
	}
	if len(ph.rounds) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	hits0, err := c.counter("dynaqd_cache_hits_total")
	if err != nil {
		return nil, err
	}
	for p := 0; p < cachedPasses; p++ {
		for _, r := range ph.rounds {
			if tr == nil {
				host.tick()
			}
			traceID := fmt.Sprintf("seed-%d", r.seed)
			rid := tr.start(traceID, "cached-job", 0)
			res.Attempted++
			jr, err := c.submit(sweepBody(doc, r.seed), tr, traceID, rid)
			tr.end(rid)
			if err != nil || jr.state != server.StateDone {
				res.Failed++
				logf("dynaqd-rack: cached job for seed %d: state %q, error %v", r.seed, jr.state, err)
				continue
			}
			st, err := c.status(jr.id)
			if err != nil {
				return nil, err
			}
			for i, cell := range st.Cells {
				if !cell.CacheHit || cell.ArtifactDir != r.st.Cells[i].ArtifactDir {
					res.fail("cached job %s cell %d: cache_hit %v, artifacts %s (first run: %s)", jr.id, i, cell.CacheHit, cell.ArtifactDir, r.st.Cells[i].ArtifactDir)
				}
			}
			ph.cells += len(st.Cells)
			r.cached = append(r.cached, jr)
		}
	}
	if tr == nil {
		host.measure()
	}
	hits1, err := c.counter("dynaqd_cache_hits_total")
	if err != nil {
		return nil, err
	}
	ph.hits = hits1 - hits0
	return ph, nil
}

// rackRounds turns a phase into per-round samples: a round's cost is its
// uncached job plus all its cached resubmissions, each scaled to reference
// host speed on its own.
func rackRounds(ph *rackPhase) *rounds {
	rs := &rounds{}
	for _, r := range ph.rounds {
		s := r.first.wall
		s.scaled = host.scaled(s)
		for _, cr := range r.cached {
			s.scaled += host.scaled(cr.wall)
			s.wall += cr.wall.wall
			s.allocBytes += cr.wall.allocBytes
			s.allocObjs += cr.wall.allocObjs
			s.cpuGC += cr.wall.cpuGC
			s.cpuTotal += cr.wall.cpuTotal
		}
		rs.add(s)
	}
	return rs
}

// rackCheck runs the rack's output checks on one phase: fair shares and
// work conservation on every DynaQ cell, BestEffort less fair than DynaQ on
// every seed, and the cells of verifyJobs jobs re-executed through
// fleet.RunCellTo and byte-compared with their cached artifacts.
func rackCheck(res *result, ph *rackPhase, doc []byte, linkBps float64) error {
	for _, r := range ph.rounds {
		bps := map[string][]float64{}
		for _, cell := range r.st.Cells {
			if cell.State != server.StateDone {
				res.fail("job %s cell %d ended %s", r.st.ID, cell.Index, cell.State)
				continue
			}
			x, err := lastThroughput(cell.ArtifactDir)
			if err != nil {
				return err
			}
			bps[cell.Scheme] = x
		}
		if err := checkFairShares(bps["DynaQ"], linkBps); err != nil {
			res.fail("seed %d DynaQ: %v", r.seed, err)
		}
		if err := checkJainOrder(bps["DynaQ"], bps["BestEffort"]); err != nil {
			res.fail("seed %d: %v", r.seed, err)
		}
	}
	fresh, err := scratchDir("fresh")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fresh)
	for _, i := range spreadIndices(len(ph.rounds), verifyJobs) {
		st := ph.rounds[i].st
		for _, cell := range st.Cells {
			dir := filepath.Join(fresh, cell.CacheKey)
			man := fleet.CellManifest(dynaq.Version, st.ScenarioHash, cell.Scheme, cell.Seed, cell.CacheKey)
			if _, err := fleet.RunCellTo(dir, doc, cell.Scheme, cell.Seed, man, nil, nil); err != nil {
				return fmt.Errorf("fresh RunCellTo: %w", err)
			}
			if err := sameFiles(cell.ArtifactDir, dir); err != nil {
				res.fail("job %s cell %d: cached artifacts differ from a fresh run: %v", st.ID, cell.Index, err)
			}
		}
	}
	return nil
}

// spreadIndices picks k indices out of n, evenly spaced, always including
// the first and the last.
func spreadIndices(n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * (n - 1) / (k - 1)
	}
	return idx
}

// lastThroughput returns the per-queue throughput (bits/s) of the last
// sample in a cell's events.jsonl: with 500 ms sampling over one second,
// the cell's second half.
func lastThroughput(dir string) ([]float64, error) {
	data, err := os.ReadFile(filepath.Join(dir, telemetry.EventsFile))
	if err != nil {
		return nil, err
	}
	var last []float64
	var lastT int64 = -1
	for _, l := range bytes.Split(data, []byte("\n")) {
		var ev struct {
			T    int64     `json:"t_ps"`
			Kind string    `json:"kind"`
			Bps  []float64 `json:"bps"`
		}
		if json.Unmarshal(l, &ev) != nil || ev.Kind != "throughput" {
			continue
		}
		if ev.T > lastT {
			lastT, last = ev.T, ev.Bps
		}
	}
	if last == nil {
		return nil, fmt.Errorf("%s: no throughput sample", dir)
	}
	return last, nil
}

// sameFiles reports how two directories differ, file set or bytes.
func sameFiles(a, b string) error {
	names := func(dir string) ([]string, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		sort.Strings(out)
		return out, nil
	}
	an, err := names(a)
	if err != nil {
		return err
	}
	bn, err := names(b)
	if err != nil {
		return err
	}
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		return fmt.Errorf("files %v and %v", an, bn)
	}
	for _, n := range an {
		x, err := os.ReadFile(filepath.Join(a, n))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, n))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("%s differs (%d and %d bytes)", n, len(x), len(y))
		}
	}
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
