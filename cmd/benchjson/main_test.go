package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// transcript is a two-package go test -bench run at -count 2, the shape
// scripts/bench_routing.sh pipes in.
const transcript = `goos: linux
goarch: amd64
pkg: repro/internal/routing
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimStep-2                   	      10	     27000 ns/op	      17 B/op	       0 allocs/op
BenchmarkSimStep-2                   	      10	     29000 ns/op	      19 B/op	       0 allocs/op
BenchmarkSimOpenLoop-2               	      10	    550000 ns/op	   46000 B/op	       5 allocs/op
BenchmarkSimOpenLoop-2               	      10	    554000 ns/op	   46000 B/op	       5 allocs/op
PASS
ok  	repro/internal/routing	3.1s
goos: linux
goarch: amd64
pkg: repro/internal/runspec
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExecuteColdVsWarm/warm-2    	      10	    220000 ns/op	    9000 B/op	      51 allocs/op
BenchmarkExecuteColdVsWarm/warm-2    	      10	    240000 ns/op	    9000 B/op	      51 allocs/op
PASS
ok  	repro/internal/runspec	2.4s
`

func TestParseRecordsPackagePerRow(t *testing.T) {
	out, err := parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if out.GOMAXPROCS != 2 || out.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || out.Goos != "linux" {
		t.Errorf("header: gomaxprocs %d cpu %q goos %q", out.GOMAXPROCS, out.CPU, out.Goos)
	}
	want := []struct {
		name, pkg string
		runs      int64
		ns        float64
	}{
		{"BenchmarkSimStep", "repro/internal/routing", 20, 28000},
		{"BenchmarkSimOpenLoop", "repro/internal/routing", 20, 552000},
		{"BenchmarkExecuteColdVsWarm/warm", "repro/internal/runspec", 20, 230000},
	}
	if len(out.Benchmarks) != len(want) {
		t.Fatalf("%d rows, want %d", len(out.Benchmarks), len(want))
	}
	for i, w := range want {
		r := out.Benchmarks[i]
		if r.Name != w.name || r.Pkg != w.pkg || r.Runs != w.runs || r.NsPerOp != w.ns {
			t.Errorf("row %d = %s %s runs=%d %.0f ns/op, want %s %s runs=%d %.0f ns/op",
				i, r.Name, r.Pkg, r.Runs, r.NsPerOp, w.name, w.pkg, w.runs, w.ns)
		}
	}
	if r := out.Benchmarks[0]; r.BytesPerOp != 18 {
		t.Errorf("averaged B/op %v, want 18", r.BytesPerOp)
	}
}

// A transcript without a -N suffix ran at GOMAXPROCS 1.
func TestParseNoSuffixIsOneProc(t *testing.T) {
	out, err := parse(strings.NewReader("pkg: p\nBenchmarkX \t 10\t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out.GOMAXPROCS != 1 || len(out.Benchmarks) != 1 || out.Benchmarks[0].Name != "BenchmarkX" {
		t.Errorf("got gomaxprocs %d rows %+v", out.GOMAXPROCS, out.Benchmarks)
	}
}

// -check matches rows by name, so a committed record in the older schema
// (one file-level pkg, none per row) still guards a fresh run, and the
// threshold decides the verdict.
func TestCheckMatchesByName(t *testing.T) {
	fresh, err := parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	committed := func(ns string) string {
		path := filepath.Join(t.TempDir(), "committed.json")
		body := `{"pkg": "repro/internal/runspec", "benchmarks": [
  {"name": "BenchmarkSimStep", "runs": 30, "ns_per_op": ` + ns + `},
  {"name": "BenchmarkExecuteColdVsWarm/warm", "runs": 30, "ns_per_op": 100}
]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if !checkRegressions(fresh, committed("27576"), "BenchmarkSimStep", 0.25) {
		t.Error("+1.5% flagged as a regression at threshold 0.25")
	}
	if checkRegressions(fresh, committed("20000"), "BenchmarkSimStep", 0.25) {
		t.Error("+40% passed at threshold 0.25")
	}
	if !checkRegressions(fresh, committed("20000"), "BenchmarkSimStep", 0.5) {
		t.Error("+40% flagged at threshold 0.5")
	}
	if checkRegressions(fresh, committed("27576"), "BenchmarkNoSuch", 0.25) {
		t.Error("a prefix matching nothing passed")
	}
}
