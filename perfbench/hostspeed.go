package main

import (
	"container/heap"
	"math"
	"time"
)

// The host this benchmark runs on is shared, and other tenants' work
// changes how fast the program runs by up to a third for minutes at a
// time. Process CPU time moves with wall time, so the program really runs
// slower then: its memory accesses contend with the other tenants', while a
// register-only loop slows far less. Between two sets of five leaf-spine
// runs a few minutes apart, every run of the second set was slower than
// every run of the first, and the medians differed by 23%.
//
// End-to-end times are therefore reported at a reference host speed. A
// fixed reference kernel, independent of the program and shaped like its
// hot path (a binary heap of freshly allocated items, about a thousand
// deep, as deep as the leaf-spine event heap), is timed before the timed
// phase, at least once every refEvery between timed sections and after the
// phase. A section's wall time is scaled by refNominal over the mean of the
// kernel times just before and just after it. On a host running at
// reference speed the scaled time is the wall time; the raw wall time and
// the kernel time are per-layer metrics (host.wall_run_s, host.ref_ms).

const (
	// refNominal is the reference kernel's time at reference speed: its
	// median over quiet stretches of the 2-vCPU host of README.md.
	refNominal = 0.050
	// refEvery is the longest stretch of timed sections between two
	// kernel timings.
	refEvery = time.Second
	refDepth = 1024
	refOps   = 200_000
)

// refItem is one entry of the reference kernel's heap.
type refItem struct {
	key, seq uint64
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refSink keeps the kernel's result live.
var refSink uint64

// refKernel is the fixed reference work: refOps pops and pushes on a heap
// of refDepth items, each push a fresh allocation, keys from a xorshift
// generator with a fixed seed.
func refKernel() {
	h := make(refHeap, 0, refDepth+1)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < refDepth; i++ {
		heap.Push(&h, &refItem{key: next() % 1_000_000, seq: uint64(i)})
	}
	for i := 0; i < refOps; i++ {
		it := heap.Pop(&h).(*refItem)
		heap.Push(&h, &refItem{key: it.key + next()%1000, seq: uint64(refDepth + i)})
	}
	refSink += h[0].key
}

// refMark is one timing of the reference kernel.
type refMark struct {
	start, end time.Time
}

func (m refMark) secs() float64 { return m.end.Sub(m.start).Seconds() }

// hostSpeed records the reference kernel's timings of one run.
type hostSpeed struct {
	marks []refMark
}

// host is the run's record; the workloads run one at a time.
var host hostSpeed

// measure times the reference kernel once.
func (h *hostSpeed) measure() {
	m := refMark{start: clock.Now()}
	refKernel()
	m.end = clock.Now()
	h.marks = append(h.marks, m)
}

// tick times the kernel when the last timing ended refEvery or more ago.
func (h *hostSpeed) tick() {
	if len(h.marks) == 0 || clock.Now().Sub(h.marks[len(h.marks)-1].end) >= refEvery {
		h.measure()
	}
}

// scaled returns a timed section's wall time at reference speed: scaled by
// refNominal over the mean of the kernel timings that ended last before it
// began and began first after it ended (the one of them that exists, if
// only one does; NaN if neither does).
func (h *hostSpeed) scaled(s sample) float64 {
	var sum float64
	var n int
	for i := len(h.marks) - 1; i >= 0; i-- {
		if !h.marks[i].end.After(s.t0) {
			sum += h.marks[i].secs()
			n++
			break
		}
	}
	for _, m := range h.marks {
		if !m.start.Before(s.t1) {
			sum += m.secs()
			n++
			break
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s.wall * refNominal / (sum / float64(n))
}

// refMs is the median kernel time of the run, in milliseconds.
func (h *hostSpeed) refMs() float64 {
	xs := make([]float64, len(h.marks))
	for i, m := range h.marks {
		xs[i] = m.secs() * 1e3
	}
	return median(xs)
}
