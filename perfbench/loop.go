package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// A sample is the outcome of one op: its latency as the client saw it,
// and enough of the response to verify it after the timed window.
type sample struct {
	op     Op
	lat    time.Duration
	status int
	sum    [32]byte // SHA-256 of the body
	body   []byte   // kept only for results queries, checked against the stored set
	err    string   // transport error
	traced bool
	wrong  string        // set by verification
	done   time.Duration // completion, from the start of its window
}

func (s *sample) ok() bool { return s.err == "" && s.status == http.StatusOK && s.wrong == "" }

// window is the outcome of one closed-loop run.
type window struct {
	samples []*sample
	elapsed time.Duration
}

// closedLoop runs clients callers, each sending its next op only after
// the previous one completed, while more reports true. Ops are drawn from
// next in stream order; more and next are called under one lock. An op
// already sent when more turns false still completes and counts, and the
// window's elapsed time runs until the last one returns.
func closedLoop(clients int, more func() bool, next func() Op, do func(Op, *sample)) window {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	per := make([][]*sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if !more() {
					mu.Unlock()
					return
				}
				op := next()
				mu.Unlock()
				s := &sample{op: op}
				t0 := time.Now()
				do(op, s)
				if s.lat == 0 {
					s.lat = time.Since(t0)
				}
				s.done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].op.Idx < w.samples[j].op.Idx })
	return w
}

// timedLoop runs the closed loop until d has passed.
func timedLoop(clients int, d time.Duration, next func() Op, do func(Op, *sample)) window {
	until := time.Now().Add(d)
	return closedLoop(clients, func() bool { return time.Now().Before(until) }, next, do)
}

// httpDo returns the op runner for a netemud base URL. With a tracer it
// wraps each request in an "http.<label>" span keyed by the op index.
func httpDo(hc *http.Client, base string, tr *tracer) func(Op, *sample) {
	return func(op Op, s *sample) {
		id := tr.begin("http."+op.Label, 0, int64(op.Idx))
		t0 := time.Now()
		status, body, err := send(hc, base, op)
		s.lat = time.Since(t0)
		tr.end(id)
		s.traced = tr != nil
		if err != nil {
			s.err = err.Error()
			return
		}
		s.status = status
		s.sum = sha256.Sum256(body)
		if op.Label == "results-query" {
			s.body = body
		}
	}
}

func send(hc *http.Client, base string, op Op) (int, []byte, error) {
	var rd io.Reader
	if op.Body != nil {
		rd = bytes.NewReader(op.Body)
	}
	req, err := http.NewRequest(op.Method, base+op.Path, rd)
	if err != nil {
		return 0, nil, err
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// newClient is the load generator's HTTP client: one keep-alive
// connection per closed-loop caller.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// sendAll sends every op once over the closed loop, with no window.
func sendAll(clients int, ops []Op, do func(Op, *sample)) []*sample {
	i := 0
	more := func() bool { return i < len(ops) }
	next := func() Op { i++; return ops[i-1] }
	return closedLoop(clients, more, next, do).samples
}

// quantile is the linearly interpolated p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median is 0 for no values, so an unmeasured rung never prints NaN.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies returns the sorted latencies of the samples, in ms.
func latencies(ss []*sample, keep func(*sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func checkStatus(ss []*sample, what string) error {
	for _, s := range ss {
		if s.err != "" || s.status != http.StatusOK {
			return fmt.Errorf("%s op %d (%s %s): status %d %s", what, s.op.Idx, s.op.Method, s.op.Path, s.status, s.err)
		}
	}
	return nil
}
