package main

import (
	"runtime"
	"time"

	"dynaq/internal/buffer"
	"dynaq/internal/core"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// The per-layer ladder times single calls into the layers under the packet
// engine, with inputs shaped like leafspine-packet: 8-queue ports with a
// 192 KB buffer, one strict-priority queue above seven DRR queues,
// 1500-byte packets at 10 Gbps, and an event heap about as deep as the
// leaf-spine's (≈900 pending events).

const (
	ladderQueues  = 8
	ladderBuffer  = 192 * units.KB
	ladderPacket  = 1500 * units.Byte
	ladderHeaders = 40 * units.Byte
	ladderRate    = 10 * units.Gbps
	ladderHeap    = 900
	ladderBatches = 15
	ladderBatch   = 20 * time.Millisecond
)

// timeOp returns the median nanoseconds per call of op over several batches
// sized to about ladderBatch each, and the heap allocations per call.
func timeOp(op func()) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := clock.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if clock.Now().Sub(t0) >= ladderBatch/4 {
			break
		}
		n *= 2
	}
	n *= 4
	var ns []float64
	var before, after runtime.MemStats
	for b := 0; b < ladderBatches; b++ {
		if b == 0 {
			runtime.ReadMemStats(&before)
		}
		t0 := clock.Now()
		for i := 0; i < n; i++ {
			op()
		}
		ns = append(ns, float64(clock.Now().Sub(t0).Nanoseconds())/float64(n))
		if b == 0 {
			runtime.ReadMemStats(&after)
		}
	}
	return median(ns), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// ladderView is a port view with queue 0 (strict priority) empty and the
// seven DRR queues backlogged, so SPQ+DRR always takes its DRR path.
type ladderView struct{}

func (ladderView) NumQueues() int { return ladderQueues }
func (ladderView) QueueLen(i int) units.ByteSize {
	if i == 0 {
		return 0
	}
	return 64 * ladderPacket
}
func (v ladderView) HeadSize(i int) units.ByteSize {
	if v.QueueLen(i) == 0 {
		return 0
	}
	return ladderPacket
}

// sink is the far end of the ladder port's link; it drops what it gets.
type sink struct{}

func (sink) Receive(*packet.Packet) {}

func runLadder(res *result) error {
	// sim: schedule one event and step the engine, heap ≈900 deep.
	s := sim.New()
	nop := func() {}
	for j := 0; j < ladderHeap; j++ {
		s.After(units.Duration(j+1)*units.Microsecond, nop)
	}
	ns, _ := timeOp(func() {
		s.After(ladderHeap*units.Microsecond, nop)
		s.Step()
	})
	res.set("sim.event_ns", "ns", ns)

	// sched: one SPQ+DRR selection and dequeue.
	quantums := make([]units.ByteSize, ladderQueues-1)
	for i := range quantums {
		quantums[i] = ladderPacket
	}
	sc, err := sched.NewSPQDRR(1, quantums)
	if err != nil {
		return err
	}
	var v sched.View = ladderView{}
	ns, allocs := timeOp(func() {
		i := sc.Select(v)
		sc.OnDequeue(i, ladderPacket, false)
	})
	res.set("sched.select_ns", "ns", ns)
	res.set("sched.select_allocs", "count", allocs)

	// netsim: one packet through a DynaQ SPQ+DRR port, from Enqueue to its
	// delivery across the attached link.
	ps := sim.New()
	weights := make([]int64, ladderQueues)
	for i := range weights {
		weights[i] = 1
	}
	admit, err := buffer.NewDynaQ(ladderBuffer, weights)
	if err != nil {
		return err
	}
	psc, err := sched.NewSPQDRR(1, quantums)
	if err != nil {
		return err
	}
	port, err := netsim.NewPort(ps, netsim.PortConfig{
		Rate: ladderRate, Buffer: ladderBuffer, Queues: ladderQueues,
		Scheduler: psc, Admission: admit,
		Link: netsim.NewLink(ps, units.Microsecond, sink{}),
	})
	if err != nil {
		return err
	}
	pkt := &packet.Packet{Kind: packet.Data, Size: ladderPacket, Payload: ladderPacket - ladderHeaders}
	k := 0
	ns, _ = timeOp(func() {
		pkt.Class = 1 + k%(ladderQueues-1)
		k++
		port.Enqueue(pkt)
		for ps.Step() {
		}
	})
	res.set("netsim.port_ns", "ns", ns)

	// core: Algorithm 1 on an 8-queue 192 KB port with the arriving queue
	// pinned at its threshold, so every call runs the victim search.
	st, err := core.New(ladderBuffer, weights)
	if err != nil {
		return err
	}
	backlog := make([]units.ByteSize, ladderQueues)
	lens := core.QueueLenFunc(func(i int) units.ByteSize { return backlog[i] })
	ns, _ = timeOp(func() {
		backlog[0] = st.Threshold(0)
		st.Process(0, ladderPacket, lens)
	})
	res.set("core.process_ns", "ns", ns)
	return nil
}
