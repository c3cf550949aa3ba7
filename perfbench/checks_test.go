package main

import "testing"

func TestCheckFlowCounts(t *testing.T) {
	if err := checkFlowCounts(400, 400, 400); err != nil {
		t.Errorf("all flows done: %v", err)
	}
	if checkFlowCounts(400, 399, 399) == nil {
		t.Error("a missing generated flow passed")
	}
	if checkFlowCounts(400, 400, 398) == nil {
		t.Error("unfinished flows passed")
	}
}

func TestCheckIdealFCT(t *testing.T) {
	// 10 Gb/s, 85.2 µs: 1 MB takes 800 µs to serialize, so at least 885.2 µs.
	ideal := idealFCT(1_000_000, 10, 85.2)
	if want := 885.2e-6; ideal < want-1e-12 || ideal > want+1e-12 {
		t.Fatalf("idealFCT = %v, want %v", ideal, want)
	}
	ok := []flowRecord{{Bytes: 1_000_000, FCTSec: 1.001 * ideal}, {Bytes: 1, FCTSec: 90e-6}}
	r, err := checkIdealFCT(ok, 10, 85.2)
	if err != nil || r < 1 || r > 1.002 {
		t.Errorf("feasible flows: ratio %v, err %v", r, err)
	}
	// A flow faster than its payload's serialization plus one RTT.
	bad := append(ok, flowRecord{Bytes: 1_000_000, FCTSec: 0.999 * ideal})
	if _, err := checkIdealFCT(bad, 10, 85.2); err == nil {
		t.Error("a flow below its ideal FCT passed")
	}
	if _, err := checkIdealFCT(nil, 10, 85.2); err == nil {
		t.Error("no flows passed")
	}
}

// smallFlows makes 100 small flows whose p99 FCT is tail milliseconds: 98
// finish within 0.1 ms and two take tail ms.
func smallFlows(tail float64) []flowRecord {
	var fs []flowRecord
	for i := 1; i <= 98; i++ {
		fs = append(fs, flowRecord{Bytes: 50_000, FCTSec: float64(i) * 1e-6})
	}
	fs = append(fs, flowRecord{Bytes: 50_000, FCTSec: tail * 1e-3}, flowRecord{Bytes: 50_000, FCTSec: tail * 1e-3})
	// A large flow never counts towards the small-flow tail.
	return append(fs, flowRecord{Bytes: 20_000_000, FCTSec: 1})
}

func TestCheckSchemeOrder(t *testing.T) {
	const minRTO = 5e-3
	if err := checkSchemeOrder(smallFlows(0.5), smallFlows(6), minRTO); err != nil {
		t.Errorf("DynaQ below BestEffort after a timeout: %v", err)
	}
	// Without contention both schemes tie, which is allowed.
	if err := checkSchemeOrder(smallFlows(0.5), smallFlows(0.5), minRTO); err != nil {
		t.Errorf("tie without a timeout: %v", err)
	}
	// Without a timeout, DynaQ may lie within orderTolerance above.
	if err := checkSchemeOrder(smallFlows(0.5795), smallFlows(0.5791), minRTO); err != nil {
		t.Errorf("DynaQ 0.07%% above BestEffort without a timeout: %v", err)
	}
	if checkSchemeOrder(smallFlows(0.52), smallFlows(0.5), minRTO) == nil {
		t.Error("DynaQ 4% above BestEffort passed")
	}
	if checkSchemeOrder(smallFlows(6), smallFlows(0.5), minRTO) == nil {
		t.Error("DynaQ above BestEffort passed")
	}
	// BestEffort's tail waited out the RTO; DynaQ's tied it.
	if checkSchemeOrder(smallFlows(6), smallFlows(6), minRTO) == nil {
		t.Error("a tie after a BestEffort timeout passed")
	}
	if checkSchemeOrder(nil, smallFlows(6), minRTO) == nil {
		t.Error("no small flows passed")
	}
}

func TestJain(t *testing.T) {
	if got := jain([]float64{1, 1, 1, 1}); got != 1 {
		t.Errorf("equal shares: %v", got)
	}
	if got := jain([]float64{4, 0, 0, 0}); got != 0.25 {
		t.Errorf("single hog: %v", got)
	}
	if got := jain([]float64{0, 0}); got != 0 {
		t.Errorf("no traffic: %v", got)
	}
}

func TestCheckFairShares(t *testing.T) {
	const link = 1e9
	if err := checkFairShares([]float64{251.9e6, 244.3e6, 252.0e6, 251.9e6}, link); err != nil {
		t.Errorf("fair split: %v", err)
	}
	// One queue squeezed to 18% of the link.
	if checkFairShares([]float64{180e6, 273e6, 273e6, 274e6}, link) == nil {
		t.Error("an unfair split passed")
	}
	// Fair split, but the link is only 90% busy.
	if checkFairShares([]float64{225e6, 225e6, 225e6, 225e6}, link) == nil {
		t.Error("a link left idle passed")
	}
	if checkFairShares(nil, link) == nil {
		t.Error("no queues passed")
	}
}

func TestCheckJainOrder(t *testing.T) {
	fair := []float64{250e6, 250e6, 250e6, 250e6}
	hog := []float64{700e6, 100e6, 100e6, 100e6}
	if err := checkJainOrder(fair, hog); err != nil {
		t.Errorf("BestEffort less fair: %v", err)
	}
	if checkJainOrder(hog, fair) == nil {
		t.Error("BestEffort fairer than DynaQ passed")
	}
	if checkJainOrder(fair, fair) == nil {
		t.Error("a tie passed")
	}
}
