package uvdiagram

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"uvdiagram/internal/core"
	"uvdiagram/internal/epoch"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Database persistence. DB.Save writes the version-5 page-image
// snapshot (persist5.go), the only format the engine writes. Load
// reads every version: v5 streams replay their page sections into heap
// pagers; versions 1–4, written by earlier releases as a LOGICAL stream
// (objects plus one serialized UV-index per shard), go through the
// frozen decoder below, which rebuilds every page on load (the helper
// R-tree is re-bulk-loaded, which is cheap).

const (
	dbMagic = 0x55564442 // "UVDB"
	// Version 1 is the unsharded logical stream; version 2 added a
	// per-object tombstone flag; version 3 the spatial shard layout
	// (gx × gy grid) followed by one index stream per shard; version 4
	// the layout's cut coordinates for adaptive layouts.
	dbVersionSharded = 3
	dbVersionCuts    = 4
)

// Load reopens a database written by Save, SaveSnapshot or an earlier
// release's logical writer (versions 1–4). opts only affect future
// Inserts and Reshards (seed/pruning parameters, layout strategy); the
// index structure and shard layout come from the stream. A malformed
// version-5 stream yields a *SnapshotError.
func Load(r io.Reader, opts *Options) (*DB, error) { return load(r, "", opts) }

// load reads the stream header and dispatches on its version; path
// only labels errors.
func load(r io.Reader, path string, opts *Options) (*DB, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	version, err := readHeader(br, path)
	if err != nil {
		return nil, err
	}
	if version == dbVersionSnapshot {
		return loadSnapshot(br, path, opts)
	}
	return loadLogical(br, version, opts)
}

// readHeader reads the magic and version words and rejects versions no
// reader handles.
func readHeader(r io.Reader, path string) (uint32, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, snapErr(path, "reading header: %v", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != dbMagic {
		return 0, fmt.Errorf("uvdiagram: not a UV-diagram database stream")
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version < 1 || version > dbVersionSnapshot {
		return 0, snapErr(path, "unsupported version %d", version)
	}
	return version, nil
}

// loadLogical is the frozen decoder of the version 1–4 logical stream,
// positioned just past the header. No code writes this format any more;
// testdata/ holds fixtures of every version it reads.
func loadLogical(br *bufio.Reader, version uint32, opts *Options) (*DB, error) {
	var scratch [8]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	f64 := func() (float64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(scratch[:])), nil
	}
	var err error
	var coords [4]float64
	for i := range coords {
		if coords[i], err = f64(); err != nil {
			return nil, fmt.Errorf("uvdiagram: reading domain: %w", err)
		}
	}
	domain := Rect{Min: Pt(coords[0], coords[1]), Max: Pt(coords[2], coords[3])}
	gx, gy := 1, 1
	if version >= dbVersionSharded {
		gxu, err := u32()
		if err == nil {
			var gyu uint32
			gyu, err = u32()
			gx, gy = int(gxu), int(gyu)
		}
		if err != nil {
			return nil, fmt.Errorf("uvdiagram: reading shard layout: %w", err)
		}
		// Bound each axis before multiplying: a crafted stream with
		// gx = gy = 0xFFFFFFFF would overflow gx*gy past the product
		// check and die in allocation instead of erroring.
		if gx < 1 || gy < 1 || gx > MaxShards || gy > MaxShards || gx*gy > MaxShards {
			return nil, fmt.Errorf("uvdiagram: implausible shard layout %d×%d", gx, gy)
		}
	}
	xs := cuts(domain.Min.X, domain.Max.X, gx)
	ys := cuts(domain.Min.Y, domain.Max.Y, gy)
	if version >= dbVersionCuts {
		read := func(n int, ends [2]float64) ([]float64, error) {
			out := make([]float64, n)
			for i := range out {
				if out[i], err = f64(); err != nil {
					return nil, fmt.Errorf("uvdiagram: reading layout cuts: %w", err)
				}
				if i > 0 && !(out[i] > out[i-1]) {
					return nil, fmt.Errorf("uvdiagram: layout cuts not increasing at %d", i)
				}
			}
			if out[0] != ends[0] || out[n-1] != ends[1] {
				return nil, fmt.Errorf("uvdiagram: layout cuts do not span the domain")
			}
			return out, nil
		}
		if xs, err = read(gx+1, [2]float64{domain.Min.X, domain.Max.X}); err != nil {
			return nil, err
		}
		if ys, err = read(gy+1, [2]float64{domain.Min.Y, domain.Max.Y}); err != nil {
			return nil, err
		}
	}
	n, err := u32()
	if err != nil {
		return nil, fmt.Errorf("uvdiagram: reading object count: %w", err)
	}
	if n == 0 || n > 1<<26 {
		return nil, fmt.Errorf("uvdiagram: implausible object count %d", n)
	}
	// Grow the object slice as records arrive: n is only bounded, not
	// yet backed by bytes, so it must not size an allocation.
	var objs []Object
	deadIDs := make([]int32, 0)
	for i := 0; i < int(n); i++ {
		if version >= 2 {
			flag, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("uvdiagram: reading object %d tombstone: %w", i, err)
			}
			if flag == 0 {
				deadIDs = append(deadIDs, int32(i))
			}
		}
		var x, y, rad float64
		if x, err = f64(); err == nil {
			if y, err = f64(); err == nil {
				rad, err = f64()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("uvdiagram: reading object %d: %w", i, err)
		}
		bins, err := u32()
		if err != nil || bins == 0 || bins > 4096 {
			return nil, fmt.Errorf("uvdiagram: object %d has bad pdf (%d bins, err=%v)", i, bins, err)
		}
		ws := make([]float64, bins)
		for k := range ws {
			if ws[k], err = f64(); err != nil {
				return nil, fmt.Errorf("uvdiagram: reading object %d pdf: %w", i, err)
			}
		}
		pdf, err := uncertain.NewHistogramPDF(ws)
		if err != nil {
			return nil, fmt.Errorf("uvdiagram: object %d: %w", i, err)
		}
		objs = append(objs, NewObject(int32(i), x, y, rad, pdf))
	}

	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		return nil, err
	}
	for _, id := range deadIDs {
		if err := store.Delete(id); err != nil {
			return nil, err
		}
	}
	bopts := opts.toBuildOptions()
	db := &DB{store: store, domain: domain, bopts: bopts, strategy: opts.layout(), egc: epoch.NewDomain()}
	// The layout comes from the stream: Options.Shards only affects
	// freshly built databases, never a reopened one.
	lo := newShardLayout(0, gx, gy, xs, ys)
	// The index streams must decode sequentially, but the shared helper
	// R-tree is an independent bulk-load over the live objects — build
	// it concurrently with the decode.
	treeDone := make(chan *rtree.Tree, 1)
	go func() { treeDone <- core.BuildHelperRTree(store, bopts.Fanout) }()
	// The deferred drain covers the error returns below, so a truncated
	// index stream never leaks the tree build still running.
	defer func() {
		tree := <-treeDone
		tree.SetReclaimDomain(db.egc)
		db.tree.Store(tree)
	}()
	shapes := make([]core.IndexStats, len(lo.shards))
	indexes := make([]*core.UVIndex, len(lo.shards))
	for i := range lo.shards {
		index, err := core.LoadUVIndex(br, store)
		if err != nil {
			return nil, fmt.Errorf("uvdiagram: shard %d: %w", i, err)
		}
		if index.Domain() != lo.shards[i].rect {
			return nil, fmt.Errorf("uvdiagram: shard %d stream covers %v, layout expects %v",
				i, index.Domain(), lo.shards[i].rect)
		}
		indexes[i] = index
	}
	// Unify the per-shard registry copies into the one engine-wide
	// CRState the runtime maintains. Streams written by this version
	// carry identical copies (the shards shared one registry when they
	// were saved), so sharing is free; a pre-registry snapshot whose
	// shards diverged (old per-shard compaction re-derived locally) gets
	// those shards' leaf structures rebuilt from shard 0's copy, so leaf
	// lists and registry agree again — answers are exact either way.
	reg := indexes[0].CR()
	for i := 1; i < len(indexes); i++ {
		if indexes[i].CR().EqualCROf(reg) {
			indexes[i].AttachCR(reg)
		} else {
			indexes[i] = indexes[i].ReindexCR(reg)
		}
	}
	db.cr = reg
	db.topo = core.NewTopology(reg.Len(), bopts.RegionSamples)
	for i := range lo.shards {
		indexes[i].SetReclaimDomain(db.egc)
		lo.shards[i].epoch.Store(&indexEpoch{index: indexes[i]})
		shapes[i] = indexes[i].Stats()
	}
	db.layout.Store(lo)
	built := BuildStats{Strategy: bopts.Strategy, N: store.Live(), Index: aggregateIndexStats(shapes)}
	db.built.Store(&built)
	if err := db.startConfiguredMaintainer(opts); err != nil {
		return nil, err
	}
	return db, nil
}
