package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"repro/internal/runspec"
	"repro/internal/store"
)

// refBody is the byte-exact body netemud must serve for s: the
// json.MarshalIndent of a cold, serial, in-process runspec.Execute plus
// the trailing newline.
func refBody(s runspec.Spec) ([]byte, error) {
	s.Shards = 1
	res, err := runspec.Execute(s)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// references adds to refs, by canonical key, the reference body of every
// spec the samples name that refs does not hold yet. It runs on all CPUs,
// outside any timed window.
func references(refs map[string][]byte, samples []*sample) error {
	todo := map[string]runspec.Spec{}
	for _, s := range samples {
		for _, sp := range s.op.Specs {
			if k := sp.Canonical(); refs[k] == nil {
				todo[k] = sp
			}
		}
	}
	keys := make(chan string)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				b, err := refBody(todo[k])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s: %w", k, err)
				}
				refs[k] = b
				mu.Unlock()
			}
		}()
	}
	for k := range todo {
		keys <- k
	}
	close(keys)
	wg.Wait()
	return firstErr
}

// verify marks every sample whose response differs from its reference.
// A spec response must equal the concatenated reference bodies of the
// op's specs byte for byte; a results query must return exactly the page
// the run's stored set gives for its filter, cursor and limit.
func verify(ss []*sample, refs map[string][]byte, stored storeIndex) (failed int) {
	for _, s := range ss {
		switch {
		case s.err != "", s.wrong != "":
		case s.status != http.StatusOK:
		case s.op.Label == "results-query":
			s.wrong = checkPage(s, stored)
		default:
			h := sha256.New()
			for _, sp := range s.op.Specs {
				h.Write(refs[sp.Canonical()])
			}
			if string(h.Sum(nil)) != string(s.sum[:]) {
				s.wrong = "body differs from the in-process reference"
			}
		}
		if !s.ok() {
			failed++
		}
	}
	return failed
}

// storedRec is one record of a run's stored set.
type storedRec struct {
	seq       int64
	canonical string
	kind      string
}

// storeIndex is a run's stored set in ascending sequence order.
type storeIndex []storedRec

// readStoreIndex opens the store directory of a stopped daemon and looks
// up the sequence number of every spec the run stored. Nothing appends
// a new record after set-up — a re-execution of a stored spec is a
// duplicate — so this is the stored set every window query saw.
func readStoreIndex(dir string, specs []runspec.Spec) (storeIndex, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if st.Len() != len(specs) {
		return nil, fmt.Errorf("store holds %d records, the run stored %d specs", st.Len(), len(specs))
	}
	idx := make(storeIndex, 0, len(specs))
	seqs := map[int64]bool{}
	for _, s := range specs {
		c := s.Canonical()
		m, _, ok := st.Get(store.KeyOf(c))
		if !ok || m.Canonical != c || seqs[m.Seq] {
			return nil, fmt.Errorf("store has no unique record of %s", c)
		}
		seqs[m.Seq] = true
		idx = append(idx, storedRec{m.Seq, c, string(s.Kind)})
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i].seq < idx[j].seq })
	return idx, nil
}

// page is what a results query must return: the first limit records of
// the kind after the cursor, in sequence order, and the next page's
// cursor, 0 when no matching record follows.
func (x storeIndex) page(kind string, cursor int64, limit int) (recs []storedRec, next int64) {
	for i := sort.Search(len(x), func(i int) bool { return x[i].seq > cursor }); i < len(x); i++ {
		if kind != "" && x[i].kind != kind {
			continue
		}
		if len(recs) == limit {
			return recs, recs[len(recs)-1].seq
		}
		recs = append(recs, x[i])
	}
	return recs, 0
}

func checkPage(s *sample, stored storeIndex) string {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(s.body, &fields); err != nil {
		return "results page does not decode: " + err.Error()
	}
	for _, f := range []string{"results", "next_cursor", "count"} {
		if _, ok := fields[f]; !ok {
			return "results page has no " + f + " field"
		}
	}
	var page struct {
		Results    []store.Meta `json:"results"`
		NextCursor int64        `json:"next_cursor"`
		Count      int          `json:"count"`
	}
	if err := json.Unmarshal(s.body, &page); err != nil {
		return "results page does not decode: " + err.Error()
	}
	want, next := stored.page(s.op.QueryKind, s.op.Cursor, s.op.Limit)
	if page.Count != len(page.Results) || len(page.Results) != len(want) || page.NextCursor != next {
		return fmt.Sprintf("results page has %d entries, count %d, next_cursor %d; the stored set gives %d entries, next_cursor %d",
			len(page.Results), page.Count, page.NextCursor, len(want), next)
	}
	for i, m := range page.Results {
		if w := want[i]; m.Seq != w.seq || m.Canonical != w.canonical || m.Kind != w.kind || m.Key != store.KeyOf(w.canonical) {
			return fmt.Sprintf("results page entry %d is seq %d %s; the stored set gives seq %d %s", i, m.Seq, m.Canonical, w.seq, w.canonical)
		}
	}
	return ""
}

// firstWrong describes the first failed sample, for the error log.
func firstWrong(ss []*sample) string {
	for _, s := range ss {
		if !s.ok() {
			return fmt.Sprintf("op %d %s %s: status %d %s%s", s.op.Idx, s.op.Method, s.op.Path, s.status, s.err, s.wrong)
		}
	}
	return ""
}
