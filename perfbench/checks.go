package main

import (
	"fmt"
	"math"
)

// The output checks below recompute every property from the scenario
// document and the raw per-flow or per-queue numbers; none of them reuses
// the program's own metric code or compares against stored output.

// smallFlowMaxBytes is the paper's small-flow boundary (§V: ≤ 100KB).
const smallFlowMaxBytes = 100_000

// flowRecord is one completed flow: its payload and completion time.
type flowRecord struct {
	Bytes  int64
	FCTSec float64
}

// checkFlowCounts requires every requested flow to be generated and every
// generated flow to complete.
func checkFlowCounts(requested, generated, completed int) error {
	if generated != requested {
		return fmt.Errorf("generated %d flows, scenario asks for %d", generated, requested)
	}
	if completed != generated {
		return fmt.Errorf("completed %d of %d generated flows", completed, generated)
	}
	return nil
}

// idealFCT is the least time a flow can take: its payload serialized at
// line rate, plus one base round trip.
func idealFCT(payloadBytes int64, rateGbps, rttUs float64) float64 {
	return float64(payloadBytes)*8/(rateGbps*1e9) + rttUs*1e-6
}

// checkIdealFCT requires every flow's FCT to be at least its ideal FCT and
// returns the lowest FCT/ideal ratio seen.
func checkIdealFCT(flows []flowRecord, rateGbps, rttUs float64) (minRatio float64, err error) {
	if len(flows) == 0 {
		return 0, fmt.Errorf("no completed flows to check")
	}
	minRatio = math.Inf(1)
	for i, f := range flows {
		ideal := idealFCT(f.Bytes, rateGbps, rttUs)
		r := f.FCTSec / ideal
		if r < minRatio {
			minRatio = r
		}
		if r < 1 {
			return r, fmt.Errorf("flow %d (%d B) finished in %.3g s, below its ideal %.3g s", i, f.Bytes, f.FCTSec, ideal)
		}
	}
	return minRatio, nil
}

// smallFlowP99 is the nearest-rank 99th percentile FCT of the small flows,
// with their count.
func smallFlowP99(flows []flowRecord) (float64, int) {
	var xs []float64
	for _, f := range flows {
		if f.Bytes <= smallFlowMaxBytes {
			xs = append(xs, f.FCTSec)
		}
	}
	v, _ := percentile(xs, 0.99)
	return v, len(xs)
}

// orderTolerance is how far DynaQ's small-flow p99 FCT may lie above
// BestEffort's where BestEffort's did not hit the minimum RTO.
const orderTolerance = 0.01

// checkSchemeOrder compares the small-flow p99 FCT of DynaQ and BestEffort
// on the same flows — the paper's headline result. Where BestEffort's p99
// small flow waited out a retransmission timeout (p99 ≥ minRTO, all from
// the scenario document), DynaQ's must be strictly below it. Elsewhere
// there was little contention to resolve and the paper claims no order:
// the schemes admit nearly the same packets, and DynaQ's p99 must be no
// more than orderTolerance above BestEffort's (leaf-spine scenario seed
// 1087 at 100 flows: 0.5795 ms against 0.5791 ms, under one packet's
// serialization time at 10 Gbps).
func checkSchemeOrder(dynaq, bestEffort []flowRecord, minRTOSec float64) error {
	d, nd := smallFlowP99(dynaq)
	b, nb := smallFlowP99(bestEffort)
	if nd == 0 || nb == 0 {
		return fmt.Errorf("no small flows to compare (DynaQ %d, BestEffort %d)", nd, nb)
	}
	if d > b*(1+orderTolerance) {
		return fmt.Errorf("small-flow p99 FCT: DynaQ %.4f ms is more than %g%% above BestEffort %.4f ms", d*1e3, orderTolerance*100, b*1e3)
	}
	if b >= minRTOSec && !(d < b) {
		return fmt.Errorf("small-flow p99 FCT: BestEffort %.3f ms hit the %.3f ms minimum RTO but DynaQ %.3f ms is not below it", b*1e3, minRTOSec*1e3, d*1e3)
	}
	return nil
}

// jain is Jain's fairness index (Σx)²/(n·Σx²): 1 for equal shares, 1/n for
// a single hog, 0 for no traffic.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if len(xs) == 0 || sumSq <= 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Fair-share band for the rack's DynaQ cells: four equal-weight queues, so
// each queue's fair share is ¼ of the bottleneck; DynaQ must hold each queue
// within shareTolerance of it (relative), and the queues together must
// keep the link at least minUtilization busy (work conservation).
const (
	shareTolerance = 0.20
	minUtilization = 0.95
)

// checkFairShares checks one cell's per-queue throughput (bits/s) over the
// measured window against equal weights and the link rate.
func checkFairShares(bps []float64, linkBps float64) error {
	if len(bps) == 0 {
		return fmt.Errorf("no per-queue throughput")
	}
	var agg float64
	for _, b := range bps {
		agg += b
	}
	if agg < minUtilization*linkBps {
		return fmt.Errorf("aggregate %.1f Mb/s is below %.0f%% of the %.0f Mb/s link", agg/1e6, minUtilization*100, linkBps/1e6)
	}
	fair := 1 / float64(len(bps))
	for i, b := range bps {
		share := b / agg
		if math.Abs(share-fair) > shareTolerance*fair {
			return fmt.Errorf("queue %d holds %.3f of the link, outside %.3f ± %.0f%%", i, share, fair, shareTolerance*100)
		}
	}
	return nil
}

// checkJainOrder requires BestEffort's per-queue throughput to be less fair
// than DynaQ's on the same seed.
func checkJainOrder(dynaqBps, bestEffortBps []float64) error {
	d, b := jain(dynaqBps), jain(bestEffortBps)
	if !(b < d) {
		return fmt.Errorf("Jain index: BestEffort %.4f is not below DynaQ %.4f", b, d)
	}
	return nil
}
