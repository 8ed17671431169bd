package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// Index persistence: a built UV-index can be written out and reopened
// against the same object store without re-running construction (the
// expensive phase). The format stores the quad-tree shape, the leaf
// object lists and each object's cr-object ids; leaf pages are
// re-materialized on load.

const (
	indexMagic = 0x55564958 // "UVIX"
	// indexVersion 2 added the cell order (orderK) to the header;
	// version-1 streams are still readable and imply order 1.
	indexVersion = 2
)

type countingWriter struct {
	w   io.Writer
	err error
}

func (cw *countingWriter) u32(v uint32) {
	if cw.err != nil {
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, cw.err = cw.w.Write(buf[:])
}

func (cw *countingWriter) f64(v float64) {
	if cw.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, cw.err = cw.w.Write(buf[:])
}

func (cw *countingWriter) ids(ids []int32) {
	cw.u32(uint32(len(ids)))
	for _, id := range ids {
		cw.u32(uint32(id))
	}
}

// Save serializes the finished index structure to w.
func (ix *UVIndex) Save(w io.Writer) error {
	if !ix.finished {
		return fmt.Errorf("core: Save before Finish")
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	cw.u32(indexMagic)
	cw.u32(indexVersion)
	cw.f64(ix.domain.Min.X)
	cw.f64(ix.domain.Min.Y)
	cw.f64(ix.domain.Max.X)
	cw.f64(ix.domain.Max.Y)
	cw.u32(uint32(ix.opts.M))
	cw.f64(ix.opts.SplitTheta)
	cw.u32(uint32(ix.opts.PageSize))
	cw.u32(uint32(ix.opts.MaxDepth))
	cw.u32(uint32(ix.orderK))
	cw.u32(uint32(len(ix.cr.crOf)))
	for _, cr := range ix.cr.crOf {
		cw.ids(cr)
	}
	var walk func(n *qnode)
	walk = func(n *qnode) {
		if cw.err != nil {
			return
		}
		if n.isLeaf() {
			cw.u32(0)
			cw.ids(n.ids)
			return
		}
		cw.u32(1)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(ix.snap().root)
	if cw.err != nil {
		return fmt.Errorf("core: saving index: %w", cw.err)
	}
	return bw.Flush()
}

type reader struct {
	r   *bufio.Reader
	err error
}

// maxPageSize bounds the page size a stream may declare, so a corrupt
// header cannot size page allocations.
const maxPageSize = 1 << 20

// checkPageSize rejects a stream's page size when a page cannot hold
// one leaf tuple or exceeds maxPageSize.
func checkPageSize(ps int) error {
	if ps < 2+pager.LeafTupleSize || ps > maxPageSize {
		return fmt.Errorf("core: implausible page size %d", ps)
	}
	return nil
}

func (rd *reader) u32() uint32 {
	if rd.err != nil {
		return 0
	}
	var buf [4]byte
	if _, err := io.ReadFull(rd.r, buf[:]); err != nil {
		rd.err = err
		return 0
	}
	return binary.LittleEndian.Uint32(buf[:])
}

func (rd *reader) f64() float64 {
	if rd.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(rd.r, buf[:]); err != nil {
		rd.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (rd *reader) ids(max int) []int32 {
	n := int(rd.u32())
	if rd.err != nil {
		return nil
	}
	if n > max {
		rd.err = fmt.Errorf("id list of %d exceeds object count %d", n, max)
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		v := rd.u32()
		if int(v) >= max {
			rd.err = fmt.Errorf("object id %d out of range", v)
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

// LoadUVIndex reads an index saved with Save and reattaches it to the
// store it was built over (the store provides MBCs and page pointers
// for the re-materialized leaf pages).
func LoadUVIndex(r io.Reader, store *uncertain.Store) (*UVIndex, error) {
	rd := &reader{r: bufio.NewReader(r)}
	if rd.u32() != indexMagic {
		return nil, fmt.Errorf("core: not a UV-index stream")
	}
	v := rd.u32()
	if v != 1 && v != indexVersion {
		return nil, fmt.Errorf("core: unsupported UV-index version %d", v)
	}
	domain := geom.Rect{
		Min: geom.Pt(rd.f64(), rd.f64()),
		Max: geom.Pt(rd.f64(), rd.f64()),
	}
	opts := IndexOptions{
		M:          int(rd.u32()),
		SplitTheta: rd.f64(),
		PageSize:   int(rd.u32()),
		MaxDepth:   int(rd.u32()),
	}
	orderK := 1
	if v >= 2 {
		orderK = int(rd.u32())
	}
	if orderK < 1 {
		return nil, fmt.Errorf("core: invalid cell order %d", orderK)
	}
	n := int(rd.u32())
	if rd.err != nil {
		return nil, fmt.Errorf("core: loading index header: %w", rd.err)
	}
	opts.normalize()
	if err := checkPageSize(opts.PageSize); err != nil {
		return nil, err
	}
	if n != store.Len() {
		return nil, fmt.Errorf("core: index stores %d objects, store has %d", n, store.Len())
	}
	ix := NewUVIndex(store, domain, opts)
	ix.orderK = orderK
	for i := 0; i < n; i++ {
		ix.cr.crOf[i] = rd.ids(n)
	}
	if rd.err == nil {
		// Rebuild the reverse cr-map (the delete path's dependency
		// index); it is derived state, so the stream does not carry it.
		for i := 0; i < n; i++ {
			ix.cr.addRev(int32(i), ix.cr.crOf[i])
		}
	}
	var nodes int
	var walk func() *qnode
	walk = func() *qnode {
		if rd.err != nil {
			return nil
		}
		nodes++
		if nodes > 1<<24 {
			rd.err = fmt.Errorf("node count exceeds sanity bound")
			return nil
		}
		switch rd.u32() {
		case 0:
			leaf := &qnode{ids: rd.ids(n)}
			leaf.pagesAlloc = 1
			if need := (len(leaf.ids) + ix.capPerPage - 1) / ix.capPerPage; need > 1 {
				leaf.pagesAlloc = need
			}
			return leaf
		case 1:
			nd := &qnode{}
			var kids [4]*qnode
			for k := 0; k < 4; k++ {
				kids[k] = walk()
			}
			nd.children = &kids
			ix.nonleaf++
			return nd
		default:
			if rd.err == nil {
				rd.err = fmt.Errorf("bad node tag")
			}
			return nil
		}
	}
	ix.root = walk()
	if rd.err != nil {
		return nil, fmt.Errorf("core: loading index tree: %w", rd.err)
	}
	ix.Finish() // re-materialize leaf pages
	return ix, nil
}
