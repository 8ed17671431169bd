package main

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"uvdiagram"
	"uvdiagram/internal/server"
)

// opKind names a request kind; latencies and failures are kept per kind.
type opKind int

const (
	opPNN opKind = iota
	opBatchPNN
	opKNN
	opInsert
	opDelete
	numOps
)

var opNames = [numOps]string{"pnn", "batch_pnn", "knn", "insert", "delete"}

// Recorded answers: the oracle checks a sample of them and the traced
// replay re-issues their points directly on the DB.
type (
	pnnRec struct {
		q   uvdiagram.Point
		ans []uvdiagram.Answer
	}
	batchRec struct {
		qs    []uvdiagram.Point
		lists [][]uvdiagram.Answer
	}
	knnRec struct {
		q   uvdiagram.Point
		ids []int32
	}
)

// keptRecords bounds the answers a stream keeps: enough for the oracle
// and the traced replay, few enough that recording does not grow the
// process's memory with the request count.
const keptRecords = 4096

// sample keeps an evenly spaced subset of at most keptRecords items
// from a sequence of unknown length: every stride-th item, dropping
// every other kept item and doubling the stride whenever it fills.
type sample[T any] struct {
	items        []T
	stride, seen int
}

func (s *sample[T]) add(x T) {
	i := s.seen
	s.seen++
	if s.stride == 0 {
		s.stride = 1
	}
	if i%s.stride != 0 {
		return
	}
	if len(s.items) == keptRecords {
		for j := range len(s.items) / 2 {
			s.items[j] = s.items[2*j]
		}
		clear(s.items[len(s.items)/2:])
		s.items = s.items[:len(s.items)/2]
		s.stride *= 2
		if i%s.stride != 0 {
			return
		}
	}
	s.items = append(s.items, x)
}

// clientSpan is one request as its client saw it, kept for the traced
// run's join with the server-side frame timestamps.
type clientSpan struct {
	kind       opKind
	start, end time.Time
}

// stream is one closed-loop client connection: it sends its next
// request only after the previous response arrived.
type stream struct {
	cli  *server.Client
	addr string // local address, the server-side connection's remote address
	rng  *rand.Rand

	lat      [numOps]latencies
	attempts [numOps]int
	errors   [numOps]int
	points   int // query points answered
	requests int // requests completed without error
	elapsed  time.Duration

	pnns    sample[pnnRec]
	batches sample[batchRec]
	knns    sample[knnRec]
	spans   []clientSpan // only when traced
	traced  bool
	skip    int         // requests sent before the measured ones (warm-up)
	pop     *population // the live objects a writer changes; nil on read-only workloads
}

func dialStream(addr string, seed int64, traced bool, pop *population) (*stream, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &stream{
		cli:    server.NewClient(conn),
		addr:   conn.LocalAddr().String(),
		rng:    rand.New(rand.NewSource(seed)),
		traced: traced,
		pop:    pop,
	}, nil
}

// do times one request of the given kind; points is how many query
// points it answers when it succeeds.
func (s *stream) do(kind opKind, points int, call func() error) {
	s.attempts[kind]++
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	if s.traced {
		s.spans = append(s.spans, clientSpan{kind, t0, t1})
	}
	if err != nil {
		s.errors[kind]++
		return
	}
	s.lat[kind] = append(s.lat[kind], t1.Sub(t0))
	s.points += points
	s.requests++
}

// reset drops everything recorded so far (after the warm-up).
func (s *stream) reset() {
	skip := s.skip
	for _, n := range s.attempts {
		skip += n
	}
	*s = stream{cli: s.cli, addr: s.addr, rng: s.rng, traced: s.traced, skip: skip, pop: s.pop}
}

func (s *stream) uniformPoint() uvdiagram.Point {
	return uvdiagram.Pt(s.rng.Float64()*side, s.rng.Float64()*side)
}

func (s *stream) sendPNN() {
	q := s.uniformPoint()
	s.do(opPNN, 1, func() error {
		ans, err := s.cli.PNN(q)
		if err == nil {
			s.pnns.add(pnnRec{q, ans})
		}
		return err
	})
}

// sendBatch sends one BatchPNN of points drawn inside one random
// window.
func (s *stream) sendBatch() {
	x0, y0 := s.rng.Float64()*(side-batchWindow), s.rng.Float64()*(side-batchWindow)
	qs := make([]uvdiagram.Point, batchPoints)
	for i := range qs {
		qs[i] = uvdiagram.Pt(x0+s.rng.Float64()*batchWindow, y0+s.rng.Float64()*batchWindow)
	}
	s.do(opBatchPNN, len(qs), func() error {
		lists, err := s.cli.BatchPNN(qs)
		if err == nil {
			s.batches.add(batchRec{qs, lists})
		}
		return err
	})
}

func (s *stream) sendKNN() {
	q := s.uniformPoint()
	s.do(opKNN, 1, func() error {
		ids, err := s.cli.PossibleKNN(q, knnK)
		if err == nil {
			s.knns.add(knnRec{q, ids})
		}
		return err
	})
}

// population mirrors the live object set as the churn writer changed
// it, independently of the DB: the oracle checks the DB against it.
type population struct {
	objs     map[int32]uvdiagram.Object
	live     []int32
	nextID   int32
	inserted []int32 // acknowledged inserts
	deleted  []int32 // acknowledged deletes
}

func newPopulation(objs []uvdiagram.Object) *population {
	p := &population{objs: make(map[int32]uvdiagram.Object, len(objs)), nextID: int32(len(objs))}
	for _, o := range objs {
		p.objs[o.ID] = o
		p.live = append(p.live, o.ID)
	}
	return p
}

// newObject draws the next object to insert: a uniform center, the
// workload's diameter and the paper's Gaussian pdf.
func (p *population) newObject(rng *rand.Rand) uvdiagram.Object {
	r := diameter / 2
	x, y := r+rng.Float64()*(side-2*r), r+rng.Float64()*(side-2*r)
	return uvdiagram.NewObject(p.nextID, x, y, r, uvdiagram.GaussianPDF())
}

func (p *population) added(o uvdiagram.Object) {
	p.objs[o.ID] = o
	p.live = append(p.live, o.ID)
	p.inserted = append(p.inserted, o.ID)
	p.nextID++
}

// pickVictim removes and returns a random live id.
func (p *population) pickVictim(rng *rand.Rand) int32 {
	k := rng.Intn(len(p.live))
	id := p.live[k]
	p.live[k] = p.live[len(p.live)-1]
	p.live = p.live[:len(p.live)-1]
	return id
}

// removed records an acknowledged delete; restore puts back a victim
// whose delete failed.
func (p *population) removed(id int32) {
	delete(p.objs, id)
	p.deleted = append(p.deleted, id)
}

func (p *population) restore(id int32) { p.live = append(p.live, id) }

// survivors lists the live objects in id order.
func (p *population) survivors() []uvdiagram.Object {
	out := make([]uvdiagram.Object, 0, len(p.objs))
	for id := int32(0); id < p.nextID; id++ {
		if o, ok := p.objs[id]; ok {
			out = append(out, o)
		}
	}
	return out
}

// churnStep sends one write over the wire: inserts on even steps,
// deletes on odd ones, so the population stays steady.
func (s *stream) churnStep() {
	p := s.pop
	if s.attempts[opInsert] <= s.attempts[opDelete] {
		o := p.newObject(s.rng)
		s.do(opInsert, 0, func() error {
			err := s.cli.Insert(o.ID, o.Region.C.X, o.Region.C.Y, o.Region.R, o.PDF.Weights())
			if err == nil {
				p.added(o)
			}
			return err
		})
		return
	}
	id := p.pickVictim(s.rng)
	s.do(opDelete, 0, func() error {
		err := s.cli.Delete(id)
		if err == nil {
			p.removed(id)
		} else {
			p.restore(id)
		}
		return err
	})
}

// runLoops drives every stream's closed loop for d, concurrently, and
// records each stream's wall time.
func runLoops(streams []*stream, steps []func(*stream), d time.Duration) {
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			deadline := t0.Add(d)
			for time.Now().Before(deadline) {
				steps[i](s)
			}
			s.elapsed = time.Since(t0)
		}()
	}
	wg.Wait()
}
