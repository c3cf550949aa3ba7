package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dynaq/internal/sim.(*Simulator).Step":                                "dynaq/internal/sim",
		"dynaq/internal/experiment.RunDynamic.func3":                          "dynaq/internal/experiment",
		"dynaq/internal/telemetry/trace.(*Tracer).Start":                      "dynaq/internal/telemetry/trace",
		"dynaq/internal/fairq.(*Tree[go.shape.*dynaq/internal/server.x]).Pop": "dynaq/internal/fairq",
		"runtime.mallocgc":       "runtime",
		"net/http.(*conn).serve": "net/http",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink int

// TestParseCPUProfile profiles a busy loop and checks that the parsed self
// times add up and land mostly in this package.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := clock.Now().Add(300 * time.Millisecond)
	acc := 0
	for clock.Now().Before(deadline) {
		for i := 0; i < 1e6; i++ {
			acc += i * i
		}
	}
	spinSink = acc
	pprof.StopCPUProfile()
	st, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.total <= 0 {
		t.Skip("no CPU samples taken")
	}
	var sum int64
	for _, v := range st.byPkg {
		sum += v
	}
	if sum != st.total {
		t.Errorf("package self times sum to %d, total %d", sum, st.total)
	}
	if share := st.share("dynaq/perfbench"); share < 0.5 {
		t.Errorf("busy loop holds %.2f of the samples; by package: %v", share, st.byPkg)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
