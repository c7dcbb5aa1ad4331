package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/runspec"
	"repro/internal/store"
)

// streamOps draws the first n ops of a workload's stream.
func streamOps(workload string, seed int64, n int) []Op {
	next, _, _ := streamOf(config{workload: workload, seed: seed})
	if workload == "sim-heavy" {
		next = newSimGen(seed).Next
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

// wire is what the program sees of an op, plus the specs its response
// is checked against.
func wire(ops []Op) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		b.WriteString(op.Method + " " + op.Path + "\n")
		b.Write(op.Body)
		for _, s := range op.Specs {
			b.WriteString("\n" + s.Canonical())
		}
		b.WriteString("\n")
	}
	return b.Bytes()
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a := wire(streamOps(w, 1, 2000))
		if b := wire(streamOps(w, 1, 2000)); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", w)
		}
		if c := wire(streamOps(w, 2, 2000)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w)
		}
	}
}

func TestClusterFreshSendsServeFreshStream(t *testing.T) {
	a := wire(streamOps("serve-fresh", 5, 3000))
	if b := wire(streamOps("cluster-fresh", 5, 3000)); !bytes.Equal(a, b) {
		t.Fatal("cluster-fresh and serve-fresh streams differ for the same seed")
	}
}

func TestServeFreshRepeatsNoKey(t *testing.T) {
	_, setup, _ := streamOf(config{workload: "serve-fresh", seed: 3})
	seen := map[string]int{}
	for _, op := range append(setup, streamOps("serve-fresh", 3, 30000)...) {
		for _, s := range op.Specs {
			k := s.Canonical()
			if prev, ok := seen[k]; ok {
				t.Fatalf("op %d repeats the key of op %d: %s", op.Idx, prev, k)
			}
			seen[k] = op.Idx
		}
	}
	// A different workload seed draws from a disjoint run-seed range.
	for _, op := range streamOps("serve-fresh", 4, 30000) {
		for _, s := range op.Specs {
			if prev, ok := seen[s.Canonical()]; ok {
				t.Fatalf("seed 4 op %d repeats the key of seed 3 op %d", op.Idx, prev)
			}
		}
	}
}

func TestRepeatPoolExceedsMemoAndIgnoresRank(t *testing.T) {
	pool, rank := repeatPool(9)
	keys := map[string]bool{}
	for _, s := range pool {
		if err := s.Validate(); err != nil {
			t.Fatalf("pool spec is invalid: %v", err)
		}
		keys[s.Canonical()] = true
	}
	if len(keys) <= memoCap {
		t.Fatalf("pool holds %d distinct keys, not more than the %d-entry memo", len(keys), memoCap)
	}
	for j, op := range fillOps(pool) {
		if op.Specs[0].Canonical() != pool[j].Canonical() {
			t.Fatalf("set-up op %d does not post pool spec %d: set-up must fill in pool order", j, j)
		}
	}
	// Fill order is pool index; popularity is rank. Their Spearman
	// correlation must be near 0, so the memo's first-come retention
	// keeps a random, not a popularity-ordered, part of the pool.
	n := float64(len(rank))
	seen := map[int]bool{}
	var d2 float64
	for r, j := range rank {
		if seen[j] {
			t.Fatalf("pool index %d has two ranks", j)
		}
		seen[j] = true
		d := float64(r - j)
		d2 += d * d
	}
	if len(seen) != poolSize {
		t.Fatalf("rank names %d pool indices, want %d", len(seen), poolSize)
	}
	if rho := 1 - 6*d2/(n*(n*n-1)); math.Abs(rho) > 0.05 {
		t.Fatalf("rank and fill order correlate: Spearman rho = %.3f", rho)
	}
	// Every block of ranks holds each kind equally, and one of each kind
	// past the memo cap.
	for b := 0; b < poolSize; b += rankBlock {
		count, past := map[runspec.Kind]int{}, map[runspec.Kind]int{}
		for r := b; r < b+rankBlock; r++ {
			k := pool[rank[r]].Kind
			count[k]++
			if rank[r] >= memoCap {
				past[k]++
			}
		}
		for k, c := range count {
			if c != rankBlock/4 || past[k] != 1 {
				t.Fatalf("ranks %d..%d: kind %s appears %d times, %d past the memo cap", b, b+rankBlock-1, k, c, past[k])
			}
		}
	}
}

func TestRepeatShare(t *testing.T) {
	samples := func(ops []Op) []*sample {
		out := make([]*sample, len(ops))
		for i, op := range ops {
			out[i] = &sample{op: op}
		}
		return out
	}
	_, freshSetup, _ := streamOf(config{workload: "serve-fresh", seed: 1})
	if got := repeatShare(samples(freshSetup), samples(streamOps("serve-fresh", 1, 5000))); got != 0 {
		t.Errorf("serve-fresh repeat share = %v, want 0", got)
	}
	_, repeatSetup, _ := streamOf(config{workload: "serve-repeat", seed: 1})
	if got := repeatShare(samples(repeatSetup), samples(streamOps("serve-repeat", 1, 5000))); got != 1 {
		t.Errorf("serve-repeat repeat share = %v, want 1: every op reads the filled pool", got)
	}
	if got := repeatShare(nil, samples(streamOps("sim-heavy", 1, 5000))); got < 0.9 {
		t.Errorf("sim-heavy repeat share = %v, want its few specs to repeat", got)
	}
}

func TestGeneratedSpecsValidate(t *testing.T) {
	for _, w := range workloads {
		for _, op := range streamOps(w, 7, 1000) {
			for _, s := range op.Specs {
				if err := s.Validate(); err != nil {
					t.Fatalf("%s op %d: %v", w, op.Idx, err)
				}
			}
		}
	}
}

func TestCheckPageWantsTheStoredPage(t *testing.T) {
	pool, _ := repeatPool(2)
	var idx storeIndex
	for j, s := range pool[:300] {
		idx = append(idx, storedRec{int64(j + 1), s.Canonical(), string(s.Kind)})
	}
	op := Op{Label: "results-query", QueryKind: "beta", Cursor: 40, Limit: 50}
	want, next := idx.page(op.QueryKind, op.Cursor, op.Limit)
	if len(want) != op.Limit || next == 0 {
		t.Fatalf("300 records hold %d beta records after seq 40 (next %d), want a full page", len(want), next)
	}
	body := func(recs []storedRec, next int64) []byte {
		var b bytes.Buffer
		b.WriteString(`{"results": [`)
		for i, r := range recs {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"key": %q, "canonical": %q, "kind": %q, "seq": %d}`, store.KeyOf(r.canonical), r.canonical, r.kind, r.seq)
		}
		fmt.Fprintf(&b, `], "next_cursor": %d, "count": %d}`, next, len(recs))
		return b.Bytes()
	}
	check := func(b []byte) string { return checkPage(&sample{op: op, body: b}, idx) }
	if msg := check(body(want, next)); msg != "" {
		t.Fatalf("the stored page is refused: %s", msg)
	}
	first, _ := idx.page(op.QueryKind, 0, op.Limit)
	for name, b := range map[string][]byte{
		"empty object":    []byte(`{}`),
		"empty page":      body(nil, 0),
		"short page":      body(want[:10], want[9].seq),
		"no next cursor":  body(want, 0),
		"cursor ignored":  body(first, first[len(first)-1].seq),
		"no results key":  []byte(fmt.Sprintf(`{"next_cursor": %d, "count": 0}`, next)),
		"wrong kind page": body(idx.page("lambda", op.Cursor, op.Limit)),
	} {
		if check(b) == "" {
			t.Errorf("%s: a wrong results page passes", name)
		}
	}
}
