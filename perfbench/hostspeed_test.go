package main

import (
	"math"
	"testing"
	"time"
)

// A section is scaled by the kernel timings that ended last before it and
// began first after it; timings farther away and timings overlapping it
// play no part.
func TestHostSpeedScaled(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	mark := func(from, ms int) refMark { return refMark{start: at(from), end: at(from + ms)} }
	h := hostSpeed{marks: []refMark{
		mark(0, 10),    // too early
		mark(100, 100), // ends right as the section starts
		mark(1100, 10), // overlaps the section's end
		mark(1200, 60), // starts after the section ends
		mark(2000, 10), // too late
	}}
	s := sample{t0: at(200), t1: at(1150), wall: 0.95}
	want := 0.95 * refNominal / ((0.100 + 0.060) / 2)
	if got := h.scaled(s); math.Abs(got-want) > 1e-12 {
		t.Errorf("scaled = %v, want %v", got, want)
	}

	// At reference speed the scaled time is the wall time.
	ref := int(refNominal * 1000)
	h = hostSpeed{marks: []refMark{mark(0, ref), mark(2000, ref)}}
	s = sample{t0: at(500), t1: at(1500), wall: 1}
	if got := h.scaled(s); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled at reference speed = %v, want 1", got)
	}

	// With a timing on one side only, that one alone scales.
	h = hostSpeed{marks: []refMark{mark(0, 2*ref)}}
	if got := h.scaled(s); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scaled with one earlier timing = %v, want 0.5", got)
	}

	// Without any timing around it a section cannot be scaled.
	h = hostSpeed{marks: []refMark{mark(600, 10)}}
	if got := h.scaled(s); !math.IsNaN(got) {
		t.Errorf("scaled with no timing around the section = %v, want NaN", got)
	}
}
