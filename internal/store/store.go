// Package store is the embedded, append-only result store behind
// netemud's query API. Every 200 the serving layer produces for a
// RunSpec — fresh computation, validated worker forward, sweep point —
// can be durably recorded here and queried back later, byte-identical
// to the wire response that produced it.
//
// The layout is a content-keyed log: one JSON record per line, records
// appended to an active segment (`active.log`) that is sealed by an
// atomic rename into the numbered sequence (`seg-00000001.log`, ...)
// once it exceeds the segment size. Sealed segments are immutable; only
// the active tail can ever hold a torn record (a crash mid-append), and
// Open truncates that tail back to the last complete record, so a store
// directory is always reopenable and never serves a partial result.
//
// Identity is the canonical RunSpec string: a record's Key is a stable
// digest of spec.Canonical() (see KeyOf), which doubles as the URL id
// of GET /v1/results/{key}. Appending the same key with the same body
// is a no-op (deduplicated by body digest without touching disk);
// appending the same key with a different body — a measurement-version
// bump — supersedes the old record in the index while the log keeps the
// full history.
//
// The in-memory index (rebuilt from the log on Open) maps keys to file
// positions and carries the queryable metadata: kind, family, dim,
// size, seed, measurement version, and the append sequence number that
// gives /v1/results its stable pagination order. It is sized for
// long-running servers: one fixed-size, pointer-free entry per record
// (the key as its 16 digest bytes, repeated strings as interned ids,
// geometry as int32) plus the record's canonical string in a shared
// byte arena — see indexEntry.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// KeyPrefix versions the result-key namespace. A key is KeyPrefix plus
// 32 hex digits of the canonical string's SHA-256; bump the prefix if
// the digest or the canonical grammar ever changes incompatibly.
const KeyPrefix = "rk1-"

// KeyOf maps a canonical RunSpec string to its stable store key — the
// id clients pass to GET /v1/results/{key}. Truncated SHA-256 keeps the
// key URL-safe and short; the full canonical string is stored in every
// record, so a (vanishingly unlikely) digest collision is detectable.
func KeyOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return KeyPrefix + hex.EncodeToString(sum[:16])
}

// Meta is the queryable description of one stored result. Family, Dim,
// Size, and Seed describe the measured machine (the guest, for
// emulations); HostFamily/HostDim/HostSize are set for emulations only.
type Meta struct {
	Key       string `json:"key"`
	Canonical string `json:"canonical"`
	Kind      string `json:"kind"`
	Family    string `json:"family,omitempty"`
	Dim       int    `json:"dim,omitempty"`
	Size      int    `json:"size,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	HostFamily string `json:"host_family,omitempty"`
	HostDim    int    `json:"host_dim,omitempty"`
	HostSize   int    `json:"host_size,omitempty"`

	// Version is the measurement version the body was computed under
	// (experiment.MeasurementVersion at append time).
	Version string `json:"version"`
	// Seq is the append sequence number — the stable pagination order of
	// GET /v1/results. Assigned by Append; monotone across restarts.
	Seq int64 `json:"seq"`
	// StoredUnixNS is the append wall-clock time.
	StoredUnixNS int64 `json:"stored_unix_ns"`
}

// record is the on-disk line format: the meta plus the compact JSON
// body. The wire form (json.MarshalIndent + newline) is recovered by
// re-indenting — key order is preserved by json.Indent — which is the
// same trick the netemud disk cache uses to serve byte-identical hits.
type record struct {
	Meta
	Body json.RawMessage `json:"body"`
}

// indexEntry is one record's index row: where the record lives, its
// dedup digest, and its Meta in compact form. It holds no pointers, so
// the GC never scans the entry pages. Strings that repeat across records
// (kind, families, version) are ids into Store.syms, the segment is an
// id into Store.segments, and the canonical string lives in Store.canon.
// Store.meta reassembles the public form.
type indexEntry struct {
	seq, storedNS, seed int64
	offset              int64 // byte offset of the record line
	key                 [16]byte
	bodyDigest          [16]byte
	canon               canonRef
	length              uint32 // line length including the trailing newline
	dim, size           int32
	hostDim, hostSize   int32
	segment             uint32
	kind, family        uint16
	hostFamily, version uint16
	dead                bool // superseded by a later record for the key
}

// canonRef locates a canonical string in the canonArena.
type canonRef struct{ chunk, off, n uint32 }

// canonArena stores canonical strings back to back in large chunks, so
// a record pays for its bytes and no per-string header or size-class
// rounding. Chunks are append-only: a stored string never moves.
type canonArena struct{ chunks [][]byte }

const canonChunkBytes = 64 << 10

func (a *canonArena) add(s string) canonRef {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+len(s) > cap(a.chunks[last]) {
		a.chunks = append(a.chunks, make([]byte, 0, max(canonChunkBytes, len(s))))
		last++
	}
	c := a.chunks[last]
	a.chunks[last] = append(c, s...)
	return canonRef{chunk: uint32(last), off: uint32(len(c)), n: uint32(len(s))}
}

func (a *canonArena) get(r canonRef) string {
	return string(a.chunks[r.chunk][r.off : r.off+r.n])
}

// digest16 is the dedup digest of a compact body: the first 16 bytes of
// its SHA-256, as wide as a key.
func digest16(body []byte) [16]byte {
	sum := sha256.Sum256(body)
	return [16]byte(sum[:16])
}

// parseKey recovers the digest bytes of a key in KeyOf's exact form
// (lower-case hex), so the key the index rebuilds from them is the same
// string.
func parseKey(key string) ([16]byte, bool) {
	var k [16]byte
	hexPart, ok := strings.CutPrefix(key, KeyPrefix)
	if !ok || len(hexPart) != 2*len(k) || strings.ContainsAny(hexPart, "ABCDEF") {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(hexPart))
	return k, err == nil
}

// Store is the append-only result store. Safe for concurrent use.
type Store struct {
	dir      string
	segBytes int64
	now      func() time.Time

	mu sync.RWMutex
	// entries holds every indexed record in ascending Seq; a superseded
	// one stays in place, marked dead, until the next Open.
	entries  entryLog
	keys     keyTable
	canon    canonArena
	syms     []string // interned kind/family/version strings; syms[0] == ""
	symIDs   map[string]uint16
	segments []string // activeName, then the sealed segments in order
	nextSeq  int64
	active   *os.File
	activeN  int64 // current size of the active segment

	appends    int64 // records written to disk
	dupSkips   int64 // appends deduplicated away
	superseded int64 // appends that replaced an older body for the key
}

// DefaultSegmentBytes is the active-segment size past which Append
// seals it. Small enough that a crash re-scans little, large enough
// that a Table-4-scale sweep fits in a handful of files.
const DefaultSegmentBytes = 4 << 20

const activeName = "active.log"

// Open opens (creating if needed) a store directory, rebuilds the
// index from every segment, and truncates a torn tail record left by a
// crash mid-append. The second return of a successfully opened store is
// always nil; a store never half-opens.
func Open(dir string) (*Store, error) {
	return OpenWithSegmentBytes(dir, DefaultSegmentBytes)
}

// OpenWithSegmentBytes is Open with an explicit segment-roll threshold
// (tests use tiny segments to exercise sealing).
func OpenWithSegmentBytes(dir string, segBytes int64) (*Store, error) {
	if segBytes < 1 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		segBytes: segBytes,
		now:      time.Now,
		syms:     []string{""},
		symIDs:   map[string]uint16{"": 0},
		segments: []string{activeName},
		nextSeq:  1,
	}
	names, err := s.segmentNames()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		s.segments = append(s.segments, name)
		if err := s.loadSegment(name, uint32(len(s.segments)-1), false); err != nil {
			return nil, err
		}
	}
	if err := s.loadSegment(activeName, 0, true); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, activeName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open active segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat active segment: %w", err)
	}
	s.active = f
	s.activeN = info.Size()
	s.compactIndex()
	return s, nil
}

// compactIndex drops dead entries, sorts the rest by Seq and rebuilds
// the key table to match.
func (s *Store) compactIndex() {
	live := 0
	for i := 0; i < s.entries.n; i++ {
		if e := s.entries.at(i); !e.dead {
			*s.entries.at(live) = *e
			live++
		}
	}
	s.entries.truncate(live)
	sort.Sort(&s.entries)
	s.keys.rebuild(&s.entries)
}

// entryLog is the index's entry array, stored in fixed-size pages so
// that growing it never copies the entries already held: one contiguous
// array would, on each growth, briefly need its old and new copies at
// once, and that transient is the store's peak memory.
type entryLog struct {
	pages [][]indexEntry
	n     int
}

const entryPageLen = 1024

func (l *entryLog) at(i int) *indexEntry { return &l.pages[i/entryPageLen][i%entryPageLen] }

func (l *entryLog) push(e indexEntry) {
	if l.n == len(l.pages)*entryPageLen {
		l.pages = append(l.pages, make([]indexEntry, entryPageLen))
	}
	l.n++
	*l.at(l.n - 1) = e
}

// truncate keeps the first n entries, releasing the pages past them.
func (l *entryLog) truncate(n int) {
	clear(l.pages[(n+entryPageLen-1)/entryPageLen:])
	l.pages = l.pages[:(n+entryPageLen-1)/entryPageLen]
	l.n = n
}

// Len, Less and Swap sort the entries by Seq.
func (l *entryLog) Len() int           { return l.n }
func (l *entryLog) Less(i, j int) bool { return l.at(i).seq < l.at(j).seq }
func (l *entryLog) Swap(i, j int)      { a, b := l.at(i), l.at(j); *a, *b = *b, *a }

// keyTable finds a key's live entry: an open-addressing hash table whose
// slot value i+1 refers to entries[i] (0 is empty). Keys are SHA-256
// prefixes, so their first 8 bytes already hash uniformly. Kept at most
// half full, it costs 8–16 B per key, where a Go map of the same pairs
// costs about twice that.
type keyTable struct {
	slots []int32
	n     int // keys held
}

// slot returns the slot holding key, or the empty slot where it belongs.
func (t *keyTable) slot(entries *entryLog, key [16]byte) int {
	mask := len(t.slots) - 1
	for i := int(binary.LittleEndian.Uint64(key[:8])) & mask; ; i = (i + 1) & mask {
		if v := t.slots[i]; v == 0 || entries.at(int(v-1)).key == key {
			return i
		}
	}
}

// get returns the index of key's live entry.
func (t *keyTable) get(entries *entryLog, key [16]byte) (int, bool) {
	if t.n == 0 {
		return 0, false
	}
	v := t.slots[t.slot(entries, key)]
	return int(v - 1), v != 0
}

// set points entries[i].key at entries[i], growing the table first when
// a new key would fill it past half.
func (t *keyTable) set(entries *entryLog, i int) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow(entries, max(16, 2*len(t.slots)))
	}
	j := t.slot(entries, entries.at(i).key)
	if t.slots[j] == 0 {
		t.n++
	}
	t.slots[j] = int32(i + 1)
}

// rebuild re-indexes entries (all live, keys distinct) from scratch.
func (t *keyTable) rebuild(entries *entryLog) {
	size := 16
	for size < 2*entries.n {
		size *= 2
	}
	t.grow(entries, size)
}

// grow re-hashes every live entry into a fresh table of the given
// power-of-two size.
func (t *keyTable) grow(entries *entryLog, size int) {
	t.slots, t.n = make([]int32, size), 0
	for i := 0; i < entries.n; i++ {
		if e := entries.at(i); !e.dead {
			t.slots[t.slot(entries, e.key)] = int32(i + 1)
			t.n++
		}
	}
}

// segmentNames lists the sealed segments in ascending order.
func (s *Store) segmentNames() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// loadSegment indexes one segment file. For the active segment
// (truncate=true) the first torn or invalid line ends the scan and the
// file is truncated back to the last complete record — the crash-safe
// reopen contract. Sealed segments were complete when renamed into
// place, so an invalid line there is corruption; it is skipped (the
// store degrades to missing that record, never to failing to open).
func (s *Store) loadSegment(name string, segment uint32, truncate bool) error {
	path := filepath.Join(s.dir, name)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: open segment %s: %w", name, err)
	}
	defer f.Close()

	var offset int64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		complete := err == nil && len(line) > 0 && line[len(line)-1] == '\n'
		if len(line) == 0 {
			break
		}
		var rec record
		var e indexEntry
		valid := complete && json.Unmarshal(line, &rec) == nil && rec.Seq > 0 && len(rec.Body) > 0
		if valid {
			var eerr error
			e, eerr = s.newEntry(rec.Meta, digest16(rec.Body), segment, offset, int64(len(line)))
			valid = eerr == nil
		}
		if !valid {
			if truncate {
				// Torn tail: drop everything from the first bad byte on.
				if terr := os.Truncate(path, offset); terr != nil {
					return fmt.Errorf("store: truncating torn tail of %s at %d: %w", name, offset, terr)
				}
				return nil
			}
			offset += int64(len(line))
			if err != nil {
				break
			}
			continue
		}
		s.install(e, rec.Canonical)
		offset += int64(len(line))
		if err != nil {
			break
		}
	}
	return nil
}

// newEntry builds the index entry for one record. It fails for a record
// the compact entry cannot represent: a key KeyOf did not produce,
// geometry beyond int32, or a line or string table past its 32- or
// 16-bit id space.
func (s *Store) newEntry(m Meta, bodyDigest [16]byte, segment uint32, offset, length int64) (indexEntry, error) {
	key, ok := parseKey(m.Key)
	if !ok {
		return indexEntry{}, fmt.Errorf("store: malformed key %q (want KeyOf's form)", m.Key)
	}
	e := indexEntry{
		seq:        m.Seq,
		storedNS:   m.StoredUnixNS,
		seed:       m.Seed,
		offset:     offset,
		key:        key,
		bodyDigest: bodyDigest,
		length:     uint32(length),
		dim:        int32(m.Dim),
		size:       int32(m.Size),
		hostDim:    int32(m.HostDim),
		hostSize:   int32(m.HostSize),
		segment:    segment,
	}
	if int64(e.length) != length || len(m.Canonical) > math.MaxUint32 ||
		int(e.dim) != m.Dim || int(e.size) != m.Size || int(e.hostDim) != m.HostDim || int(e.hostSize) != m.HostSize {
		return indexEntry{}, fmt.Errorf("store: record %s exceeds the index's field widths", m.Key)
	}
	var ok1, ok2, ok3, ok4 bool
	e.kind, ok1 = s.intern(m.Kind)
	e.family, ok2 = s.intern(m.Family)
	e.hostFamily, ok3 = s.intern(m.HostFamily)
	e.version, ok4 = s.intern(m.Version)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return indexEntry{}, fmt.Errorf("store: more than %d distinct kind, family and version strings", math.MaxUint16+1)
	}
	return e, nil
}

// install adds an entry, superseding any older entry for the same key
// (later Seq wins — segments are scanned in order).
func (s *Store) install(e indexEntry, canonical string) {
	if i, ok := s.keys.get(&s.entries, e.key); ok {
		old := s.entries.at(i)
		if old.seq >= e.seq {
			return
		}
		// Same key, same canonical string: share its bytes.
		old.dead = true
		e.canon = old.canon
	} else {
		e.canon = s.canon.add(canonical)
	}
	s.entries.push(e)
	s.keys.set(&s.entries, s.entries.n-1)
	if e.seq >= s.nextSeq {
		s.nextSeq = e.seq + 1
	}
}

// intern returns v's id in the string table, adding it if new; false
// once the table is full.
func (s *Store) intern(v string) (uint16, bool) {
	if id, ok := s.symIDs[v]; ok {
		return id, true
	}
	if len(s.syms) > math.MaxUint16 {
		return 0, false
	}
	id := uint16(len(s.syms))
	s.syms = append(s.syms, v)
	s.symIDs[v] = id
	return id, true
}

// meta reassembles the public Meta of an entry. Called with mu held.
func (s *Store) meta(e *indexEntry) Meta {
	return Meta{
		Key:          KeyPrefix + hex.EncodeToString(e.key[:]),
		Canonical:    s.canon.get(e.canon),
		Kind:         s.syms[e.kind],
		Family:       s.syms[e.family],
		Dim:          int(e.dim),
		Size:         int(e.size),
		Seed:         e.seed,
		HostFamily:   s.syms[e.hostFamily],
		HostDim:      int(e.hostDim),
		HostSize:     int(e.hostSize),
		Version:      s.syms[e.version],
		Seq:          e.seq,
		StoredUnixNS: e.storedNS,
	}
}

// Close closes the active segment. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns how many distinct keys the index currently holds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.keys.n
}

// Counts returns the append accounting: records written, appends
// deduplicated away (same key, same body), and appends that superseded
// an older body for their key.
func (s *Store) Counts() (appends, dupSkips, superseded int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appends, s.dupSkips, s.superseded
}

// Append durably records one result body under its meta. body must be
// the exact wire bytes of the 200 response (MarshalIndent + newline);
// it is stored compacted and recovered byte-identically by Body/Get.
// Re-appending an identical (key, body) pair is a free no-op; a new
// body for an existing key supersedes it. Returns the record's assigned
// sequence number (the existing one on a dedup skip).
func (s *Store) Append(meta Meta, body []byte) (int64, error) {
	compact, err := compactBody(body)
	if err != nil {
		return 0, fmt.Errorf("store: body is not JSON: %w", err)
	}
	digest := digest16(compact)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0, fmt.Errorf("store: append on closed store")
	}
	key, ok := parseKey(meta.Key)
	if !ok {
		return 0, fmt.Errorf("store: malformed key %q (want KeyOf's form)", meta.Key)
	}
	old, existed := s.keys.get(&s.entries, key)
	if existed && s.entries.at(old).bodyDigest == digest {
		s.dupSkips++
		return s.entries.at(old).seq, nil
	}
	meta.Seq = s.nextSeq
	meta.StoredUnixNS = s.now().UnixNano()
	meta.Version = strings.TrimSpace(meta.Version)
	line, err := json.Marshal(record{Meta: meta, Body: compact})
	if err != nil {
		return 0, fmt.Errorf("store: marshal record: %w", err)
	}
	line = append(line, '\n')
	// Build the entry first, so a record the index cannot hold is refused
	// before it reaches disk.
	e, err := s.newEntry(meta, digest, 0, s.activeN, int64(len(line)))
	if err != nil {
		return 0, err
	}
	if _, err := s.active.Write(line); err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	s.activeN += int64(len(line))
	s.appends++
	if existed {
		s.superseded++
	}
	s.install(e, meta.Canonical)
	if s.activeN >= s.segBytes {
		if err := s.seal(); err != nil {
			return meta.Seq, err
		}
	}
	return meta.Seq, nil
}

// seal renames the active segment into the numbered sequence and opens
// a fresh one. The rename is atomic, so a sealed segment is always a
// complete file; index entries pointing into it are repointed first.
// Called with mu held.
func (s *Store) seal() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: sealing active segment: %w", err)
	}
	name := fmt.Sprintf("seg-%08d.log", len(s.segments))
	if err := os.Rename(filepath.Join(s.dir, activeName), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: sealing active segment: %w", err)
	}
	s.segments = append(s.segments, name)
	id := uint32(len(s.segments) - 1)
	for i := 0; i < s.entries.n; i++ {
		if e := s.entries.at(i); e.segment == 0 {
			e.segment = id
		}
	}
	f, err := os.OpenFile(filepath.Join(s.dir, activeName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening fresh active segment: %w", err)
	}
	s.active = f
	s.activeN = 0
	return nil
}

// compactBody strips the wire indentation so the stored line is
// one-line JSON; wireBody re-indents on the way out. json.Compact
// preserves key order, exactly like json.Indent, which is what makes
// the round trip byte-exact.
func compactBody(body []byte) (json.RawMessage, error) {
	if !json.Valid(body) {
		return nil, fmt.Errorf("invalid JSON")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// Get returns the meta and the exact wire bytes for key: the stored
// compact body re-indented to the MarshalIndent form plus the trailing
// newline — byte-identical to the 200 response that was recorded.
func (s *Store) Get(key string) (Meta, []byte, bool) {
	k, ok := parseKey(key)
	if !ok {
		return Meta{}, nil, false
	}
	s.mu.RLock()
	i, ok := s.keys.get(&s.entries, k)
	if !ok {
		s.mu.RUnlock()
		return Meta{}, nil, false
	}
	e := s.entries.at(i)
	meta := s.meta(e)
	segment, offset, length := s.segments[e.segment], e.offset, e.length
	s.mu.RUnlock()

	line, err := s.readAt(segment, offset, length)
	if err != nil {
		// The segment may have been sealed (renamed) between the index
		// read and the file read; retry once against the fresh location.
		s.mu.RLock()
		if i2, ok2 := s.keys.get(&s.entries, k); ok2 {
			e2 := s.entries.at(i2)
			segment, offset, length = s.segments[e2.segment], e2.offset, e2.length
		}
		s.mu.RUnlock()
		if line, err = s.readAt(segment, offset, length); err != nil {
			return Meta{}, nil, false
		}
	}
	var rec record
	if json.Unmarshal(line, &rec) != nil || rec.Key != key {
		return Meta{}, nil, false
	}
	body, err := wireBody(rec.Body)
	if err != nil {
		return Meta{}, nil, false
	}
	return meta, body, true
}

func (s *Store) readAt(segment string, offset int64, length uint32) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.dir, segment))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// wireBody restores the exact wire form: indent with two spaces and
// append the newline, matching json.MarshalIndent + '\n' on the
// serving path (key order is preserved by json.Indent).
func wireBody(compact json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Query filters the index. Zero-value fields match everything.
type Query struct {
	Kind   string
	Family string // matches Family or HostFamily
	Since  time.Time
	// Cursor resumes after the record with this Seq (exclusive); 0
	// starts from the beginning.
	Cursor int64
	// Limit bounds the page (default DefaultQueryLimit, max
	// MaxQueryLimit).
	Limit int
}

// DefaultQueryLimit and MaxQueryLimit bound one /v1/results page.
const (
	DefaultQueryLimit = 100
	MaxQueryLimit     = 1000
)

// Query returns matching record metas in ascending Seq order starting
// after q.Cursor, plus the cursor for the next page (0 when the page
// reached the end of the index). Pagination is stable: Seq is assigned
// at append time and never reused, so concurrent appends only ever add
// records after an in-progress walk.
func (s *Store) Query(q Query) (metas []Meta, next int64) {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	kind, family := uint16(0), uint16(0)
	var ok bool
	if q.Kind != "" {
		if kind, ok = s.symIDs[q.Kind]; !ok {
			return nil, 0
		}
	}
	if q.Family != "" {
		if family, ok = s.symIDs[q.Family]; !ok {
			return nil, 0
		}
	}
	since := int64(math.MinInt64)
	if !q.Since.IsZero() {
		since = q.Since.UnixNano()
	}
	// Binary search to the first Seq > cursor; entries are Seq-ascending.
	lo := sort.Search(s.entries.n, func(i int) bool { return s.entries.at(i).seq > q.Cursor })
	for i := lo; i < s.entries.n; i++ {
		e := s.entries.at(i)
		if e.dead || q.Kind != "" && e.kind != kind ||
			q.Family != "" && e.family != family && e.hostFamily != family ||
			e.storedNS < since {
			continue
		}
		if len(metas) == limit {
			return metas, metas[len(metas)-1].Seq
		}
		metas = append(metas, s.meta(e))
	}
	return metas, 0
}
