package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/routing"
	"repro/internal/runspec"
	"repro/internal/store"
	"repro/internal/topology"
)

// The ladder times the layers one rung at a time, in process, over a
// sample of the workload's own specs: machine build (topology), engine
// build (routing), warm and cold execution (runspec), the emulation
// split, and the server's decode → execute → encode → store-append
// pipeline without HTTP. Every call is wrapped in a span.

var allKinds = []runspec.Kind{
	runspec.KindBeta, runspec.KindSteadyBeta, runspec.KindOpenLoop,
	runspec.KindFaultCurve, runspec.KindLambda, runspec.KindEmulate,
}

// ladderSample returns the workload's own specs, plus two specs from
// the fresh stream of the same seed for each kind the workload never
// sends, so every runspec.exec_ms metric is measured on every workload
// and, where the workload sends a kind, on the workload's own specs.
func ladderSample(own []runspec.Spec, seed int64) []runspec.Spec {
	out := append([]runspec.Spec(nil), own...)
	owned := map[runspec.Kind]bool{}
	for _, s := range own {
		owned[s.Kind] = true
	}
	added := map[runspec.Kind]int{}
	g := newFreshGen(seed)
	for scanned := 0; scanned < 2000; scanned++ {
		op := g.Next()
		if s := op.Specs[0]; op.Label != "sweep" && !owned[s.Kind] && added[s.Kind] < 2 {
			out = append(out, s)
			added[s.Kind]++
		}
	}
	return out
}

// ladderResult carries the ladder's metrics plus the pipeline's median
// per-request cost, which the caller sets against the server's own p50.
type ladderResult struct {
	m          map[string]float64
	pipelineUS float64 // median decode+exec+encode+append of the measurement specs
}

const ladderReps = 3

func runLadder(specs []runspec.Spec, dir string, tr *tracer) (ladderResult, error) {
	L := ladderResult{m: map[string]float64{}}
	req := int64(0)
	nextReq := func() int64 { req++; return -req } // ladder requests are negative, stream ops non-negative

	// topology and routing: cold machine and engine builds per shape.
	shapes := map[string]runspec.MachineSpec{}
	for _, s := range specs {
		for _, ms := range []*runspec.MachineSpec{s.Machine, s.Guest, s.Host} {
			if ms != nil {
				shapes[runspec.MachineKey(*ms)] = *ms
			}
		}
	}
	keys := make([]string, 0, len(shapes))
	for k := range shapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buildMS, engineMS []float64
	for _, k := range keys {
		var b, e []float64
		for r := 0; r < ladderReps; r++ {
			var m *topology.Machine
			var err error
			rid := nextReq()
			b = append(b, ms(tr.do("topology.build", 0, rid, func(int) { m, err = runspec.BuildMachine(shapes[k]) })))
			if err != nil {
				return L, err
			}
			e = append(e, ms(tr.do("routing.engine_build", 0, rid, func(int) { routing.NewEngine(m, routing.Greedy) })))
		}
		buildMS = append(buildMS, median(b))
		engineMS = append(engineMS, median(e))
	}
	L.m["topology.build_ms"] = mean(buildMS)
	L.m["routing.engine_build_ms"] = mean(engineMS)

	// runspec: warm the cache, then time warm and cold execution per kind.
	c := runspec.NewArtifactCache(0, 0)
	for _, s := range specs {
		if _, err := runspec.ExecuteCached(c, s); err != nil {
			return L, err
		}
	}
	warm := make([]float64, len(specs))
	byKind := map[runspec.Kind][]float64{}
	var warmSum, coldSum float64
	for i, s := range specs {
		var t []float64
		for r := 0; r < ladderReps; r++ {
			t = append(t, ms(tr.do("runspec.execute_cached", 0, nextReq(), func(int) { runspec.ExecuteCached(c, s) })))
		}
		warm[i] = median(t)
		byKind[s.Kind] = append(byKind[s.Kind], t...)
		warmSum += warm[i]
		coldSum += ms(tr.do("runspec.execute", 0, nextReq(), func(int) { runspec.Execute(s) }))
	}
	for _, k := range allKinds {
		L.m["runspec.exec_ms."+string(k)] = median(byKind[k])
	}
	L.m["runspec.cold_warm_ratio"] = coldSum / warmSum

	var canon time.Duration
	const canonReps = 50
	for _, s := range specs {
		canon += tr.do("runspec.canonical", 0, nextReq(), func(int) {
			for r := 0; r < canonReps; r++ {
				if s.Validate() == nil {
					_ = s.Canonical()
				}
			}
		})
	}
	L.m["runspec.canonical_us"] = us(canon) / float64(canonReps*len(specs))

	// emulation: how much of an emulate op is building its two machines.
	var emuBuild, emuAll time.Duration
	for _, s := range specs {
		if s.Kind != runspec.KindEmulate {
			continue
		}
		rid := nextReq()
		var err error
		emuAll += tr.do("emulation.op", 0, rid, func(parent int) {
			var g, h *topology.Machine
			emuBuild += tr.do("topology.build", parent, rid, func(int) { g, err = runspec.BuildMachine(*s.Guest) })
			emuBuild += tr.do("topology.build", parent, rid, func(int) { h, err = runspec.BuildMachine(*s.Host) })
			tr.do("emulation.run", parent, rid, func(int) { _, err = runspec.RunEmulation(g, h, s) })
		})
		if err != nil {
			return L, err
		}
	}
	if emuAll > 0 {
		L.m["emulation.build_share"] = float64(emuBuild) / float64(emuAll)
	}

	// server pipeline without HTTP, appending into a scratch store.
	st, err := store.Open(filepath.Join(dir, "ladder-store"))
	if err != nil {
		return L, err
	}
	defer st.Close()
	var encode, appendT, pipeline []float64
	for _, s := range specs {
		wire, err := json.Marshal(s)
		if err != nil {
			return L, err
		}
		rid := nextReq()
		var stepErr error
		var measured []float64
		tr.do("ladder.request", 0, rid, func(parent int) {
			var spec runspec.Spec
			var res runspec.Result
			var body []byte
			measured = []float64{
				us(tr.do("server.decode", parent, rid, func(int) {
					dec := json.NewDecoder(bytes.NewReader(wire))
					dec.DisallowUnknownFields()
					stepErr = dec.Decode(&spec)
				})),
				us(tr.do("runspec.execute_cached", parent, rid, func(int) { res, stepErr = runspec.ExecuteCached(c, spec) })),
				us(tr.do("server.encode", parent, rid, func(int) {
					b, _ := json.MarshalIndent(res, "", "  ")
					body = append(b, '\n')
				})),
				us(tr.do("store.append", parent, rid, func(int) { _, stepErr = st.Append(metaOf(spec), body) })),
			}
		})
		if stepErr != nil {
			return L, stepErr
		}
		encode = append(encode, measured[2])
		appendT = append(appendT, measured[3])
		if s.Kind.IsMeasurement() {
			pipeline = append(pipeline, measured[0]+measured[1]+measured[2]+measured[3])
		}
	}
	L.m["server.encode_us"] = median(encode)
	L.m["store.append_us"] = median(appendT)
	L.pipelineUS = median(pipeline)

	var query []float64
	for r := 0; r < 200; r++ {
		q := store.Query{Kind: queryKinds[r%len(queryKinds)], Cursor: int64(r % (len(specs) + 1)), Limit: queryLimit}
		query = append(query, us(tr.do("store.query", 0, nextReq(), func(int) { st.Query(q) })))
	}
	L.m["store.query_us"] = median(query)

	// routing: the tick loop on the largest open-loop machine, serial and
	// at two shards.
	var ol *runspec.Spec
	for i := range specs {
		if s := &specs[i]; s.Kind == runspec.KindOpenLoop && (ol == nil || s.Machine.Size > ol.Machine.Size) {
			ol = s
		}
	}
	if ol != nil {
		var t1, t2 []float64
		delivered := 0
		for r := 0; r < ladderReps; r++ {
			for _, shards := range []int{1, 2} {
				s := *ol
				s.Shards = shards
				var res runspec.Result
				d := ms(tr.do(fmt.Sprintf("routing.open_loop_shards%d", shards), 0, nextReq(), func(int) { res, err = runspec.ExecuteCached(c, s) }))
				if err != nil {
					return L, err
				}
				if shards == 1 {
					t1 = append(t1, d)
					delivered = res.OpenLoop.Delivered
				} else {
					t2 = append(t2, d)
				}
			}
		}
		L.m["routing.tick_us"] = median(t1) * 1e3 / float64(ol.Normalized().Ticks)
		L.m["routing.msgs_per_s"] = float64(delivered) / (median(t1) / 1e3)
		L.m["routing.shard_speedup"] = median(t1) / median(t2)
	}

	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	for _, s := range specs {
		if s.Kind != runspec.KindEmulate {
			runspec.ExecuteCached(c, s)
			n++
		}
	}
	runtime.ReadMemStats(&after)
	L.m["routing.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	L.m["runspec.machine_builds"] = float64(c.MachineBuilds())
	L.m["runspec.engine_builds"] = float64(c.EngineBuilds())
	return L, nil
}

// metaOf is the store row netemud derives for a served spec
// (internal/server/results.go, storeMeta).
func metaOf(s runspec.Spec) store.Meta {
	canonical := s.Canonical()
	m := store.Meta{Key: store.KeyOf(canonical), Canonical: canonical, Kind: string(s.Kind), Version: experiment.MeasurementVersion}
	ms := s.Machine
	if s.Kind == runspec.KindEmulate {
		ms = s.Guest
		if h := s.Host; h != nil {
			m.HostFamily, m.HostDim, m.HostSize = h.Family, h.Dim, h.Size
		}
	}
	if ms != nil {
		m.Family, m.Dim, m.Size, m.Seed = ms.Family, ms.Dim, ms.Size, ms.Seed
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
