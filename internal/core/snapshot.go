package core

import (
	"bufio"
	"bytes"
	"fmt"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// Page-image snapshots: unlike Save/LoadUVIndex — which persist the
// logical structure and RE-MATERIALIZE every leaf page on load — a
// snapshot separates the index into a compact MANIFEST (tree shape,
// leaf id lists, per-leaf page counts) and the raw page images
// themselves, which the caller persists verbatim in manifest walk
// order. Opening then just points a fresh tree at the existing pages
// (typically an mmap-backed pager.FileStore over the snapshot file), so
// a database serves straight off disk with zero rebuild work and zero
// resident heap for leaf payloads.
//
// Page ids are implicit: the manifest records only how many pages each
// leaf owns, and both SnapshotManifest and OpenUVIndexSnapshot walk the
// tree in the same depth-first order, so leaf k's pages are the next
// count_k sequential ids. This works because a pager built from a
// snapshot allocates ids 0,1,2,… in Alloc order (heap replay) or
// addresses the file section directly (FileStore).

// SnapshotManifest serializes the finished index's structure — without
// the constraint registry, which the engine persists once at the
// database level — and returns the leaf page ids in manifest order so
// the caller can copy the page images out of ix.Pager() into the
// snapshot file.
func (ix *UVIndex) SnapshotManifest() ([]byte, []pager.PageID, error) {
	if !ix.finished {
		return nil, nil, fmt.Errorf("core: SnapshotManifest before Finish")
	}
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	cw.f64(ix.domain.Min.X)
	cw.f64(ix.domain.Min.Y)
	cw.f64(ix.domain.Max.X)
	cw.f64(ix.domain.Max.Y)
	cw.u32(uint32(ix.opts.M))
	cw.f64(ix.opts.SplitTheta)
	cw.u32(uint32(ix.opts.PageSize))
	cw.u32(uint32(ix.opts.MaxDepth))
	cw.u32(uint32(ix.orderK))
	cw.u32(uint32(ix.store.Len()))
	var pages []pager.PageID
	var walk func(n *qnode)
	walk = func(n *qnode) {
		if cw.err != nil {
			return
		}
		if n.isLeaf() {
			cw.u32(0)
			cw.ids(n.ids)
			cw.u32(uint32(len(n.pages)))
			pages = append(pages, n.pages...)
			return
		}
		cw.u32(1)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(ix.snap().root)
	if cw.err != nil {
		return nil, nil, fmt.Errorf("core: snapshot manifest: %w", cw.err)
	}
	return buf.Bytes(), pages, nil
}

// OpenUVIndexSnapshot reconstructs an index from a manifest written by
// SnapshotManifest and a pager already holding the page images in
// manifest order (ids 0..NumPages-1). No pages are written and Finish
// is never called: the tree is published as-is, which is the whole
// point — opening a snapshot costs only the manifest parse.
//
// The store provides object geometry for future queries and mutations;
// cr is the engine-level constraint registry the leaves were built
// from.
func OpenUVIndexSnapshot(manifest []byte, store *uncertain.Store, cr *CRState, pg *pager.Pager) (*UVIndex, error) {
	rd := &reader{r: bufio.NewReader(bytes.NewReader(manifest))}
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
	orderK := int(rd.u32())
	n := int(rd.u32())
	if rd.err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", rd.err)
	}
	if orderK < 1 {
		return nil, fmt.Errorf("core: snapshot cell order %d", orderK)
	}
	if n != store.Len() {
		return nil, fmt.Errorf("core: snapshot indexes %d objects, store has %d", n, store.Len())
	}
	opts.normalize()
	if err := checkPageSize(opts.PageSize); err != nil {
		return nil, err
	}
	if opts.PageSize != pg.PageSize() {
		return nil, fmt.Errorf("core: snapshot page size %d, pager %d", opts.PageSize, pg.PageSize())
	}
	ix := &UVIndex{
		domain:     domain,
		opts:       opts,
		pg:         pg,
		store:      store,
		cr:         cr,
		capPerPage: pager.TuplesPerPage(opts.PageSize),
		orderK:     orderK,
	}
	total := pg.NumPages()
	next := 0 // next unclaimed sequential page id
	var nodes, nonleaf int
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
			count := int(rd.u32())
			if rd.err != nil {
				return nil
			}
			if count < 1 || next+count > total {
				rd.err = fmt.Errorf("leaf claims pages [%d, %d) of %d", next, next+count, total)
				return nil
			}
			if count < (len(leaf.ids)+ix.capPerPage-1)/ix.capPerPage {
				rd.err = fmt.Errorf("leaf of %d ids claims only %d pages", len(leaf.ids), count)
				return nil
			}
			leaf.pages = make([]pager.PageID, count)
			for i := range leaf.pages {
				leaf.pages[i] = pager.PageID(next + i)
			}
			next += count
			leaf.pagesAlloc = count
			return leaf
		case 1:
			var kids [4]*qnode
			for k := 0; k < 4; k++ {
				kids[k] = walk()
			}
			nonleaf++
			return &qnode{children: &kids}
		default:
			if rd.err == nil {
				rd.err = fmt.Errorf("bad node tag")
			}
			return nil
		}
	}
	root := walk()
	if rd.err != nil {
		return nil, fmt.Errorf("core: snapshot tree: %w", rd.err)
	}
	if next != total {
		return nil, fmt.Errorf("core: snapshot tree claims %d pages, section holds %d", next, total)
	}
	ix.root = root
	ix.nonleaf = nonleaf
	ix.finished = true
	ix.ts.Store(&treeState{root: root, nonleaf: nonleaf})
	return ix, nil
}
