package routing

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Intra-sim sharding. The vertex set is partitioned across shards; each
// tick every shard runs two phases back to back:
//
//	move:   serve the shard's own vertices' queues (edge capacity, service
//	        discipline, fault retry logic), deliver packets that reach
//	        their final destination, and post the rest to the mailbox
//	        outbox[destination shard]; then publish the shard's epoch.
//	arrive: spin until every in-neighbour shard's epoch reaches this tick,
//	        then merge the inbound mailboxes in sender order and push the
//	        arrivals into the shard's own queues.
//
// There is no global move/arrive barrier: the epoch counters order each
// pair of neighbouring shards individually, so a shard whose in-neighbours
// finished early proceeds while distant shards are still moving. The
// driver joins all shards only at the end of the tick (to fold counters
// and let the next tick's injections land safely).
//
// Safety rests on ownership plus the epoch protocol: vq[u], u's active
// bit, the chunk arena, and the edge slots of edges *out of* u (edgeUsed,
// stats.edgeTotals) are touched only by u's owning shard; a mailbox
// shards[j].outbox[i] is written only during j's move and read only
// during i's arrive, which the atomic epoch store/load pair orders. A
// shard only ever touches the mailboxes of shards it shares a graph edge
// with (srcShards/outNbrs, computed once), so no slice header is ever
// accessed by a non-synchronized pair of shards.
//
// Determinism rests on two rules. First, randomness is positional: every
// hop decision draws from a (tick, vertex)-keyed stream (vrand.go), so no
// shard's choices depend on any other's schedule. Second, arrival order is
// canonical: the move phase serves vertices in ascending id order, so each
// mailbox is sender-sorted, and the arrive phase k-way-merges its inboxes
// by sender id — reproducing exactly the order a serial sweep in ascending
// vertex order would have produced, at every shard count and partition.
// Delivery counters and latency histograms are order-independent
// (sums and bucket counts), which is why final-destination deliveries can
// be counted at the sender shard during move without crossing a mailbox.

// arrival is one packet crossing a shard boundary, tagged with the vertex
// that forwarded it so the merge can restore canonical order.
type arrival struct {
	sender int32
	p      simPacket
}

// shardEpoch is one shard's published tick counter, padded to a cache line
// so neighbouring shards' spins do not false-share.
type shardEpoch struct {
	v atomic.Int64
	_ [56]byte
}

// Queue chunk arena: per-vertex queues are chains of fixed-size chunks
// drawn from a per-shard pool, so steady-state queue churn allocates
// nothing and the pool grows with the shard's in-flight high-water mark,
// not with per-vertex maxima.
const (
	qChunkCap     = 16
	chunksPerPage = 1024
	pageShift     = 10 // log2(chunksPerPage)
)

type qChunk struct {
	next int32 // next chunk id in the chain or free list; -1 ends
	p    [qChunkCap]simPacket
}

// simShard owns a subset of the vertices. All mutable state below is
// private to the shard's phase functions except the outboxes (published
// via the epoch protocol) and the cumulative histograms (merged by the
// driver between ticks).
type simShard struct {
	id    int
	owned int // number of vertices assigned to this shard

	// Active set: bit i of activeBits is set exactly while vertex
	// activeLo+i has queued packets. The bits span the shard's lowest to
	// highest owned id (nil for a shard that owns nothing), so walking them
	// in order visits the active vertices in ascending id order.
	activeLo   int
	activeBits []uint64

	touched  []int32     // edge-usage slots dirtied this tick
	sortKeys []int       // FarthestFirst scratch
	sortBuf  []simPacket // FarthestFirst gather scratch

	// Chunk arena for the owned vertices' queues.
	pages    [][]qChunk
	freeHead int32 // head of the free-chunk list; -1 when empty

	outbox [][]arrival // per destination shard, refilled every move phase
	heads  []int       // arrive-phase merge cursors, one per source shard

	// Shard topology, computed once from the machine graph: which shards
	// this one can receive from (ascending, includes self), which it can
	// send to (ascending, includes self), and which epochs arrive must
	// wait on (srcShards minus self).
	srcShards []int32
	outNbrs   []int32
	waitFor   []int32

	// Cumulative per-shard statistics, merged on demand.
	latHist  Histogram // delivery latencies of packets delivered here
	queueOcc Histogram // queue lengths sampled each tick (stats runs only)
	maxQueue int

	// Per-tick deltas, folded into the Sim's global counters by Step after
	// the tick and then reset.
	tickDelivered int
	tickDropped   int
	tickRetried   int
	tickHops      int64
	tickLatency   int64
}

// setActive adds owned vertex u to the active set.
func (sh *simShard) setActive(u int) {
	i := u - sh.activeLo
	sh.activeBits[i>>6] |= 1 << (i & 63)
}

// clearActive removes owned vertex u from the active set.
func (sh *simShard) clearActive(u int) {
	i := u - sh.activeLo
	sh.activeBits[i>>6] &^= 1 << (i & 63)
}

// forActive calls fn for every active vertex in ascending id order. fn may
// clear the bit of the vertex it is given.
func (sh *simShard) forActive(fn func(u int)) {
	for w, word := range sh.activeBits {
		for ; word != 0; word &= word - 1 {
			fn(sh.activeLo + w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// chunk resolves a chunk id in the shard's arena.
func (sh *simShard) chunk(id int32) *qChunk {
	return &sh.pages[id>>pageShift][id&(chunksPerPage-1)]
}

// allocChunk pops a free chunk, growing the arena by a page when empty.
func (sh *simShard) allocChunk() int32 {
	id := sh.freeHead
	if id < 0 {
		base := int32(len(sh.pages) << pageShift)
		page := make([]qChunk, chunksPerPage)
		for i := range page {
			page[i].next = base + int32(i) + 1
		}
		page[chunksPerPage-1].next = -1
		sh.pages = append(sh.pages, page)
		id = base
	}
	c := sh.chunk(id)
	sh.freeHead = c.next
	c.next = -1
	return id
}

// freeChain returns a whole chunk chain to the free list.
func (sh *simShard) freeChain(id int32) {
	if id < 0 {
		return
	}
	last := id
	for c := sh.chunk(last); c.next >= 0; c = sh.chunk(last) {
		last = c.next
	}
	sh.chunk(last).next = sh.freeHead
	sh.freeHead = id
}

// qpush appends p to queue q (owned by this shard). The dense-chain
// invariant makes the tail's fill level n mod cap.
func (sh *simShard) qpush(q *vqueue, p simPacket) {
	if q.n == 0 {
		nc := sh.allocChunk()
		q.head, q.tail = nc, nc
	} else if q.n%qChunkCap == 0 {
		nc := sh.allocChunk()
		sh.chunk(q.tail).next = nc
		q.tail = nc
	}
	sh.chunk(q.tail).p[q.n%qChunkCap] = p
	q.n++
}

// qfree empties queue q, returning its chunks to the arena.
func (sh *simShard) qfree(q *vqueue) {
	sh.freeChain(q.head)
	q.head, q.tail, q.n = -1, -1, 0
}

// move serves every active owned vertex in ascending id order: clears the
// previous tick's edge usage, applies the service discipline and per-wire
// capacity, counts packets that reached their final destination as
// delivered, and posts the other moved packets to the destination shard's
// mailbox. Queue chains are compacted in place (the write cursor never
// passes the read cursor).
func (sh *simShard) move(s *Sim) {
	for _, id := range sh.touched {
		s.edgeUsed[id] = 0
	}
	sh.touched = sh.touched[:0]
	for _, j := range sh.outNbrs {
		sh.outbox[j] = sh.outbox[j][:0]
	}
	eng := s.eng
	fs := s.faults
	stats := s.stats
	caps := eng.caps
	farthest := eng.Discipline == FarthestFirst
	now := s.now
	// Canonical service order: ascending vertex id, the active set's bit
	// order. Fairness across ticks comes from the positional randomness of
	// the hop choices, not from shuffling the service order. The walk
	// reads each word once, so clearing a drained vertex's bit is safe.
	for w, word := range sh.activeBits {
		for ; word != 0; word &= word - 1 {
			u := sh.activeLo + w<<6 + bits.TrailingZeros64(word)
			q := &s.vq[u]
			qn := int(q.n)
			if qn > sh.maxQueue {
				sh.maxQueue = qn
			}
			vr := s.vertexRand(u)
			if farthest && qn > 1 {
				sh.sortFarthestFirst(s, u, q)
			}
			var capLeft int64 = -1
			if caps != nil {
				capLeft = caps[u]
			}
			rci, wci := q.head, q.head
			rC, wC := sh.chunk(rci), sh.chunk(rci)
			ri, wi := 0, 0
			kept := 0
			for i := 0; i < qn; i++ {
				if ri == qChunkCap {
					rci = rC.next
					rC = sh.chunk(rci)
					ri = 0
				}
				p := rC.p[ri]
				ri++
				if capLeft != 0 {
					keep := false
					if fs != nil {
						if int(p.sleepUntil) > now {
							keep = true // backing off
						} else if now-int(p.born) > fs.opts.TTL {
							sh.tickDropped++
							continue
						}
					}
					if !keep {
						h, edge := eng.pickHop(int(p.at), int(p.dst), s.edgeUsed, &vr)
						if h >= 0 {
							if s.edgeUsed[edge] == 0 {
								sh.touched = append(sh.touched, edge)
							}
							s.edgeUsed[edge]++
							if stats != nil {
								stats.edgeTotals[edge]++
							}
							if capLeft > 0 {
								capLeft--
							}
							p.at = int32(h)
							sh.tickHops++
							if p.dst == p.at && !p.phase1 {
								// Delivered: counted here at the sender shard —
								// the counters and histogram buckets it feeds
								// are order-independent, so this matches the
								// serial accounting exactly.
								sh.tickDelivered++
								lat := now - int(p.born)
								sh.tickLatency += int64(lat)
								sh.latHist.Record(lat)
								continue
							}
							dst := s.shardOf[h]
							sh.outbox[dst] = append(sh.outbox[dst], arrival{sender: int32(u), p: p})
							continue
						}
						if fs != nil && eng.distance(u, int(p.dst)) < 0 {
							// Stranded: no live path to the current target.
							if p.phase1 {
								// The Valiant intermediate became unreachable;
								// try the final destination directly.
								p.phase1 = false
								p.dst = p.finalDst
							} else {
								p.retries++
								sh.tickRetried++
								if int(p.retries) > fs.opts.RetryBudget {
									sh.tickDropped++
									continue
								}
								p.sleepUntil = int32(now + backoffTicks(fs.opts.BackoffBase, p.retries))
							}
						}
						// Otherwise: all downhill wires saturated; wait in place.
					}
				}
				// Keep p: compact it to the write cursor.
				if wi == qChunkCap {
					wci = wC.next
					wC = sh.chunk(wci)
					wi = 0
				}
				wC.p[wi] = p
				wi++
				kept++
			}
			q.n = int32(kept)
			if kept == 0 {
				sh.qfree(q)
				sh.clearActive(u)
			} else {
				fc := wC.next
				wC.next = -1
				q.tail = wci
				sh.freeChain(fc)
			}
		}
	}
}

// arrive merges this shard's inbound mailboxes by ascending sender id and
// pushes each arrival (or applies the Valiant phase switch). Each mailbox
// is already sender-sorted (move serves vertices in ascending order), so a
// k-way merge over the in-neighbour shards restores the canonical global
// order.
func (sh *simShard) arrive(s *Sim) {
	heads := sh.heads
	for i := range heads {
		heads[i] = 0
	}
	for {
		src := -1
		var bestSender int32
		for i, sj := range sh.srcShards {
			ob := s.shards[sj].outbox[sh.id]
			if heads[i] < len(ob) && (src < 0 || ob[heads[i]].sender < bestSender) {
				src = i
				bestSender = ob[heads[i]].sender
			}
		}
		if src < 0 {
			break
		}
		// A sender's packets sit consecutively in exactly one mailbox;
		// consume the whole run before rescanning.
		ob := s.shards[sh.srcShards[src]].outbox[sh.id]
		h := heads[src]
		for h < len(ob) && ob[h].sender == bestSender {
			sh.handleArrival(s, ob[h].p)
			h++
		}
		heads[src] = h
	}
	if s.stats != nil {
		sh.sampleQueues(s)
	}
}

func (sh *simShard) handleArrival(s *Sim, p simPacket) {
	if p.at == p.dst {
		if p.phase1 {
			// Reached the Valiant intermediate; phase 2 starts next tick.
			p.phase1 = false
			p.dst = p.finalDst
			s.push(p)
			return
		}
		// Final-destination deliveries are counted at the sender shard
		// during move and never cross a mailbox; this branch only defends
		// against a future caller.
		sh.tickDelivered++
		lat := s.now - int(p.born)
		sh.tickLatency += int64(lat)
		sh.latHist.Record(lat)
		return
	}
	s.push(p)
}

// sampleQueues records one queue-occupancy sample per owned vertex: the
// queue length for active vertices, zero for the rest.
func (sh *simShard) sampleQueues(s *Sim) {
	active := 0
	sh.forActive(func(u int) {
		sh.queueOcc.Record(int(s.vq[u].n))
		active++
	})
	for i := active; i < sh.owned; i++ {
		sh.queueOcc.Record(0)
	}
}

// sortFarthestFirst stably sorts vertex u's queue by descending remaining
// distance: the chain is gathered into a scratch slice, insertion-sorted
// on a parallel key slice (queues are short and mostly sorted from the
// previous tick), and scattered back into the same chunks.
func (sh *simShard) sortFarthestFirst(s *Sim, u int, q *vqueue) {
	n := int(q.n)
	buf := sh.sortBuf[:0]
	for ci, got := q.head, 0; got < n; ci = sh.chunk(ci).next {
		c := sh.chunk(ci)
		k := qChunkCap
		if n-got < k {
			k = n - got
		}
		buf = append(buf, c.p[:k]...)
		got += k
	}
	keys := sh.sortKeys[:0]
	for i := range buf {
		keys = append(keys, s.eng.distance(u, int(buf[i].dst)))
	}
	for i := 1; i < n; i++ {
		p, k := buf[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j] < k {
			buf[j+1], keys[j+1] = buf[j], keys[j]
			j--
		}
		buf[j+1], keys[j+1] = p, k
	}
	for ci, put := q.head, 0; put < n; ci = sh.chunk(ci).next {
		c := sh.chunk(ci)
		k := qChunkCap
		if n-put < k {
			k = n - put
		}
		copy(c.p[:k], buf[put:put+k])
		put += k
	}
	sh.sortBuf, sh.sortKeys = buf, keys
}

// Worker plumbing: shards beyond the first get a long-lived goroutine fed
// tick commands over a channel, so the steady-state tick loop spawns
// nothing. Shard 0 always runs inline on the driver. One dispatch per tick
// (not per phase): the move->arrive ordering between shards is enforced by
// the epoch counters, not by channel round-trips.

type shardWorker struct {
	cmd  chan struct{}
	done chan struct{}
}

func (s *Sim) startWorkers() {
	s.workers = make([]*shardWorker, len(s.shards)-1)
	for i := range s.workers {
		w := &shardWorker{cmd: make(chan struct{}), done: make(chan struct{})}
		s.workers[i] = w
		sh := s.shards[i+1]
		go func() {
			for range w.cmd {
				s.tickShard(sh)
				w.done <- struct{}{}
			}
		}()
	}
}

// tickShard runs one shard's full tick: move, publish the shard's epoch
// (the release point for its outboxes), wait for the in-neighbour shards'
// epochs (the acquire point for theirs), arrive. The atomic store/load
// pairs carry the happens-before edges a global barrier used to provide —
// but only between shards that actually exchange packets.
func (s *Sim) tickShard(sh *simShard) {
	sh.move(s)
	tick := int64(s.now)
	s.epochs[sh.id].v.Store(tick)
	for _, j := range sh.waitFor {
		ep := &s.epochs[j]
		for ep.v.Load() < tick {
			runtime.Gosched()
		}
	}
	sh.arrive(s)
}
