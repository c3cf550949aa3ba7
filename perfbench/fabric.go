package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"dynaq/internal/scenario"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// fabric is a simulation workload: FCT cells run through scenario.LoadWith
// and Runner.Run, one after another on one goroutine. A round runs one
// cell per scheme on the same scenario seed, and every round of a run
// repeats the same cells.
type fabric struct {
	name string
	file string
	// flows overrides the document's flow count (0 keeps it); warmFlows is
	// the flow count of the set-up's warm-up cells.
	flows, warmFlows int
	schemes          []string
	// seeds are the scenario seeds --seed picks from: seeds whose cells
	// do the same simulated work within a few percent (see seeds.go).
	seeds []int64
	// order checks the paper's scheme ordering on small-flow tail FCT.
	order bool
}

var leafSpine = fabric{
	name:      "leafspine-packet",
	file:      "scenarios/fct_leafspine.json",
	flows:     100,
	warmFlows: 16,
	schemes:   []string{"DynaQ", "BestEffort"},
	seeds:     leafSpineSeeds,
	order:     true,
}

var fatTree = fabric{
	name:      "fattree-flow",
	file:      "scenarios/fattree_flows.json",
	flows:     5000,
	warmFlows: 500,
	schemes:   []string{"DynaQ"},
	seeds:     fatTreeSeeds,
}

func runLeafSpine(o opts) (*result, error) { return leafSpine.run(o) }
func runFatTree(o opts) (*result, error)   { return fatTree.run(o) }

// scenarioDoc reads a scenario document and returns it re-encoded with
// edits applied, plus the decoded fields the checks need.
func scenarioDoc(path string, edits map[string]any) ([]byte, map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range edits {
		if _, ok := doc[k]; !ok {
			return nil, nil, fmt.Errorf("%s has no field %q to set", path, k)
		}
		doc[k] = v
	}
	out, err := json.Marshal(doc)
	return out, doc, err
}

// number reads a numeric field of a decoded scenario document.
func number(doc map[string]any, key string) (float64, error) {
	switch v := doc[key].(type) {
	case float64:
		return v, nil
	case int: // set by an edit
		return float64(v), nil
	}
	return 0, fmt.Errorf("scenario field %q is not a number", key)
}

// cellOut is what the checks and the per-layer metrics need from one cell.
type cellOut struct {
	scheme     string
	generated  int
	completed  int
	flows      []flowRecord
	events     int64
	recomputes int64
	counters   map[string]int64 // telemetry counters (traced cells only)
}

// runCell loads and runs one cell. With tr non-nil it attaches a telemetry
// run in a fresh directory under dir and records spans around each call.
func runCell(doc []byte, scheme string, seed int64, tr *tracer, parent int, dir string) (*cellOut, error) {
	traceID := fmt.Sprintf("%s-%d", scheme, seed)
	cell := tr.start(traceID, "cell", parent)
	defer tr.end(cell)

	sp := tr.start(traceID, "scenario.LoadWith", cell)
	r, err := scenario.LoadWith(doc, scenario.Overrides{Scheme: scheme, Seed: &seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var tel *telemetry.Run
	if tr != nil {
		sp = tr.start(traceID, "telemetry.NewRun", cell)
		tel, err = telemetry.NewRun(filepath.Join(dir, traceID), telemetry.Manifest{Tool: "perfbench", Seed: seed, Scheme: scheme})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.SetTelemetry(tel)
	}
	sp = tr.start(traceID, "Runner.Run", cell)
	res, err := r.Run()
	tr.end(sp)
	if tel != nil {
		sp = tr.start(traceID, "telemetry.Run.Close", cell)
		cerr := tel.Close()
		tr.end(sp)
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	d := res.Dynamic
	if d == nil {
		return nil, fmt.Errorf("%s: not an FCT scenario", scheme)
	}
	out := &cellOut{scheme: scheme, generated: d.Generated, completed: d.Completed, events: d.Events}
	if d.Fluid != nil {
		out.recomputes = d.Fluid.Recomputes
	}
	for _, rec := range d.FCT.Records() {
		out.flows = append(out.flows, flowRecord{Bytes: int64(rec.Size), FCTSec: float64(rec.FCT) / float64(units.Second)})
	}
	if tel != nil {
		if out.counters, err = readCounters(tel.Dir()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readCounters sums the counter series of a telemetry artifact directory's
// metrics.jsonl by metric name; admission drops are kept apart under
// "port_drops_total/admission".
func readCounters(dir string) (map[string]int64, error) {
	data, err := os.ReadFile(filepath.Join(dir, telemetry.MetricsFile))
	if err != nil {
		return nil, err
	}
	sums := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			Series string `json:"series"`
			Type   string `json:"type"`
			Value  int64  `json:"value"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Type != "counter" {
			continue
		}
		name, labels, _ := strings.Cut(line.Series, "{")
		sums[name] += line.Value
		if name == "port_drops_total" && strings.Contains(labels, `cause="admission"`) {
			sums[name+"/admission"] += line.Value
		}
	}
	return sums, sc.Err()
}

// pick maps --seed onto one of n table entries.
func pick(seed int64, n int) int { return int(((seed % int64(n)) + int64(n)) % int64(n)) }

func (f *fabric) run(o opts) (*result, error) {
	res := newResult()
	doc, fields, err := scenarioDoc(f.file, f.edits(f.flows))
	if err != nil {
		return nil, err
	}
	warm, _, err := scenarioDoc(f.file, f.edits(f.warmFlows))
	if err != nil {
		return nil, err
	}
	requested, err := number(fields, "flows")
	if err != nil {
		return nil, err
	}
	rate, err := number(fields, "rate_gbps")
	if err != nil {
		return nil, err
	}
	rtt, err := number(fields, "rtt_us")
	if err != nil {
		return nil, err
	}
	minRTO, err := number(fields, "min_rto_ms")
	if err != nil {
		return nil, err
	}
	seed := f.seeds[pick(o.seed, len(f.seeds))]
	logf("%s: scenario seed %d, %d flows, schemes %v", f.name, seed, int(requested), f.schemes)

	// Set-up: load and validate every cell's scenario, then warm up with
	// one short cell per scheme. The warm-up always uses the table's first
	// seed, so that set-up does the same work whatever --seed picks.
	var setup []sample
	var loads []float64
	host.measure()
	for i := 0; i < setupReps; i++ {
		sm := startMeter()
		for _, scheme := range f.schemes {
			l0 := clock.Now()
			if _, err := scenario.LoadWith(doc, scenario.Overrides{Scheme: scheme, Seed: &seed}); err != nil {
				return nil, err
			}
			loads = append(loads, clock.Now().Sub(l0).Seconds()*1e3)
		}
		for _, scheme := range f.schemes {
			if _, err := runCell(warm, scheme, f.seeds[0], nil, 0, ""); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setup = append(setup, sm.stop())
		host.measure()
	}

	minRatio := 1e9
	var p99 [2]float64 // small-flow p99 FCT of the two schemes (leafspine-packet)
	var firstEvents int64
	// round runs one round and checks its outputs outside the timed part.
	// Untraced rounds time the reference kernel between rounds; traced
	// ones, under the CPU profiler, only before and after the phase.
	round := func(rs *rounds, tr *tracer, dir string, n int) []*cellOut {
		if tr == nil {
			host.tick()
		}
		rid := tr.start(fmt.Sprintf("round-%d", n), "round", 0)
		m := startMeter()
		var outs []*cellOut
		for _, scheme := range f.schemes {
			res.Attempted++
			out, err := runCell(doc, scheme, seed, tr, rid, dir)
			if err != nil {
				res.Failed++
				logf("%s: %s cell failed: %v", f.name, scheme, err)
				continue
			}
			outs = append(outs, out)
		}
		rs.add(m.stop())
		tr.end(rid)
		if len(outs) != len(f.schemes) {
			return nil
		}
		var events int64
		for _, out := range outs {
			events += out.events
			if err := checkFlowCounts(int(requested), out.generated, out.completed); err != nil {
				res.fail("%s: %v", out.scheme, err)
			}
			r, err := checkIdealFCT(out.flows, rate, rtt)
			if err != nil {
				res.fail("%s: %v", out.scheme, err)
			}
			if r < minRatio {
				minRatio = r
			}
		}
		if f.order {
			p99[0], _ = smallFlowP99(outs[0].flows)
			p99[1], _ = smallFlowP99(outs[1].flows)
			if err := checkSchemeOrder(outs[0].flows, outs[1].flows, minRTO*1e-3); err != nil {
				res.fail("%v", err)
			}
		}
		// The simulator is deterministic: every round repeats the first of
		// its phase (telemetry adds heartbeat events to traced rounds).
		if n == 0 {
			firstEvents = events
		} else if events != firstEvents {
			res.fail("round %d processed %d events, the first round %d", n, events, firstEvents)
		}
		return outs
	}

	measured := o.seconds
	if o.trace {
		measured /= 2
	}
	untraced := rounds{}
	deadline := clock.Now().Add(measured)
	for n := 0; n == 0 || clock.Now().Before(deadline); n++ {
		round(&untraced, nil, "", n)
	}
	host.measure()
	untraced.scale()
	untracedEvents := firstEvents
	if !o.trace {
		setEndToEnd(res, setup, &untraced, float64(len(f.schemes)), requested*float64(len(f.schemes)))
		logf("%s: round times %.3f s as measured, %.3f s scaled; lowest FCT/ideal ratio %.4f; small-flow p99 FCT %.4f ms and %.4f ms", f.name,
			untraced.col(func(s sample) float64 { return s.wall }), untraced.col(func(s sample) float64 { return s.scaled }), minRatio, p99[0]*1e3, p99[1]*1e3)
		return res, nil
	}

	// Traced rounds: CPU profile, telemetry registry and spans.
	dir, err := scratchDir(f.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	traced := rounds{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var last []*cellOut
	deadline = clock.Now().Add(measured)
	for n := 0; n == 0 || clock.Now().Before(deadline); n++ {
		if outs := round(&traced, tr, filepath.Join(dir, fmt.Sprint(n)), n); outs != nil {
			last = outs
		}
	}
	pprof.StopCPUProfile()
	host.measure()
	traced.scale()
	st, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if last == nil {
		return nil, fmt.Errorf("no traced round completed")
	}
	counts := map[string]float64{"events": float64(untracedEvents)}
	for _, out := range last {
		counts["recomputes"] += float64(out.recomputes)
		for k, v := range out.counters {
			counts[k] += float64(v)
		}
	}
	runS := untraced.runS()
	pkts := counts["port_tx_packets_total"]
	res.set("sim.events", "count", counts["events"])
	res.set("sim.events_per_s", "1/s", counts["events"]/runS)
	res.set("netsim.pkts", "count", pkts)
	if pkts > 0 {
		res.set("netsim.ns_per_pkt", "ns", runS*1e9/pkts)
		res.set("netsim.allocs_per_pkt", "count", untraced.mallocs()/pkts)
	}
	res.set("transport.retransmits", "count", counts["transport_retransmits_total"])
	res.set("transport.timeouts", "count", counts["transport_timeouts_total"])
	res.set("buffer.drops", "count", counts["port_drops_total/admission"])
	res.set("core.adjustments", "count", counts["dynaq_adjustments_total"])
	res.set("runtime.gc_cpu_share", "share", untraced.gcShare())
	res.set("runtime.mallocs", "count", untraced.mallocs())
	res.set("flowsim.recomputes", "count", counts["recomputes"])
	if rc := counts["recomputes"] * float64(len(traced.samples)); rc > 0 {
		res.set("flowsim.recompute_us", "us", st.seconds("dynaq/internal/flowsim")/rc*1e6)
	}
	res.set("scenario.load_ms", "ms", median(loads))
	setProfileShares(res, st)
	setOverhead(res, &untraced, &traced)
	setHost(res, &untraced)
	if err := runLadder(res); err != nil {
		return nil, err
	}
	path, err := tr.write(fmt.Sprintf("%s-seed%d", f.name, o.seed))
	if err != nil {
		return nil, err
	}
	logf("%s: %d untraced and %d traced rounds; spans in %s", f.name, len(untraced.samples), len(traced.samples), path)
	fillPerLayer(res)
	return res, nil
}

// edits returns the document edits for a cell of the given flow count.
func (f *fabric) edits(flows int) map[string]any {
	if flows == 0 {
		return nil
	}
	return map[string]any{"flows": flows}
}
