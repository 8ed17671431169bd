package uvdiagram

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"uvdiagram/internal/core"
	"uvdiagram/internal/epoch"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Page-image persistence (version 5): Save writes the raw pages of the
// object store, every shard's UV-index and the helper R-tree, each
// section aligned to snapAlign, preceded by a metadata blob (domain,
// layout, tombstones, constraint registry, per-section manifests).
// Load replays the sections into heap pagers; Open of a v5 file in mmap
// mode serves STRAIGHT OFF THE FILE: the page sections become
// mmap-backed pager.FileStores (zero-copy reads, no rebuild, no
// per-page heap), so a database much larger than RAM opens in
// milliseconds and the kernel pages leaf data in and out on demand.
// Open falls back to Load for every other case, so uvdiagram.Open(path)
// is the universal opener.
//
// File layout:
//
//	u32 magic "UVDB" | u32 version=5 | u64 metaLen | meta | pad
//	object pages   (n × storePageSize)             | pad
//	shard 0 pages  (count₀ × indexPageSize)        | pad
//	…                                              | pad
//	R-tree pages   (countᵣ × rtreePageSize)
//
// Page ids inside each section are implicit sequential positions (the
// manifests record only per-leaf counts), which is exactly how both the
// FileStore addresses the section and a heap replay re-allocates it.

const (
	dbVersionSnapshot = 5
	snapAlign         = 4096
	// snapMaxMeta bounds the metadata blob against corrupt headers.
	snapMaxMeta = 1 << 31
	// snapMaxPageSize bounds any section's page size.
	snapMaxPageSize = 1 << 20
)

// ErrCorruptSnapshot is the sentinel every malformed-snapshot failure
// matches through errors.Is, whatever field was damaged. Open never
// returns a partially constructed DB alongside it.
var ErrCorruptSnapshot = errors.New("uvdiagram: corrupt snapshot")

// SnapshotError is the concrete malformed-snapshot error: the file (empty
// for a Load stream) and what was wrong with it.
// errors.Is(err, ErrCorruptSnapshot) matches it.
type SnapshotError struct {
	Path   string
	Detail error
}

// Error implements error.
func (e *SnapshotError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("uvdiagram: snapshot stream: %v", e.Detail)
	}
	return fmt.Sprintf("uvdiagram: snapshot %s: %v", e.Path, e.Detail)
}

// Is makes every SnapshotError match the ErrCorruptSnapshot sentinel.
func (e *SnapshotError) Is(target error) bool { return target == ErrCorruptSnapshot }

// Unwrap exposes the underlying detail error.
func (e *SnapshotError) Unwrap() error { return e.Detail }

func snapErr(path, format string, args ...any) error {
	return &SnapshotError{Path: path, Detail: fmt.Errorf(format, args...)}
}

// snapMeta is the parsed metadata blob of a v5 snapshot.
type snapMeta struct {
	domain        Rect
	gx, gy        int
	xs, ys        []float64
	n             int
	dead          []bool
	crSets        [][]int32
	storePageSize int
	metaEnd       int64 // byte offset just past the metadata blob
	storeOff      int64 // byte offset of the object page section
	shards        []snapSection
	rt            snapSection
}

// snapSection describes one page section: its manifest and the page
// geometry needed to locate it in the file.
type snapSection struct {
	pageSize  int
	manifest  []byte
	pageCount int
	off       int64 // byte offset of the section's first page
}

type metaWriter struct{ buf []byte }

func (w *metaWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *metaWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *metaWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

type metaReader struct {
	b   []byte
	err error
}

func (r *metaReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *metaReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *metaReader) bytes(max int) []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > max || n > len(r.b) {
		r.err = fmt.Errorf("blob of %d bytes exceeds bound %d", n, max)
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func alignUp(off int64) int64 {
	return (off + snapAlign - 1) / snapAlign * snapAlign
}

// Save writes the database to dst as a version-5 page-image snapshot,
// the one format the engine writes. Queries may run concurrently; it
// holds the store-level lock (smu) shared, so Insert and Delete wait
// until the stream is written.
func (db *DB) Save(dst io.Writer) error {
	db.smu.RLock()
	defer db.smu.RUnlock()

	lo := db.lo()
	eps := lo.epochs()
	tree := db.rtree()
	storePg := db.store.Pager()
	n := db.store.Len()

	// Metadata blob first: everything Open needs before touching pages.
	w := &metaWriter{}
	for _, v := range []float64{db.domain.Min.X, db.domain.Min.Y, db.domain.Max.X, db.domain.Max.Y} {
		w.f64(v)
	}
	w.u32(uint32(lo.gx))
	w.u32(uint32(lo.gy))
	for _, v := range lo.xs {
		w.f64(v)
	}
	for _, v := range lo.ys {
		w.f64(v)
	}
	w.u32(uint32(n))
	for i := 0; i < n; i++ {
		flag := byte(0)
		if db.store.Alive(int32(i)) {
			flag = 1
		}
		w.buf = append(w.buf, flag)
	}
	// The engine-wide constraint registry, once — not once per shard as
	// the v≤4 index streams did.
	for i := 0; i < n; i++ {
		ids := db.cr.Of(int32(i))
		w.u32(uint32(len(ids)))
		for _, id := range ids {
			w.u32(uint32(id))
		}
	}
	w.u32(uint32(storePg.PageSize()))
	type section struct {
		pg    *pager.Pager
		pages []pager.PageID
	}
	sections := make([]section, 0, len(eps)+1)
	for i, ep := range eps {
		manifest, pages, err := ep.index.SnapshotManifest()
		if err != nil {
			return fmt.Errorf("uvdiagram: snapshot shard %d: %w", i, err)
		}
		w.u32(uint32(ep.index.Pager().PageSize()))
		w.bytes(manifest)
		w.u32(uint32(len(pages)))
		sections = append(sections, section{pg: ep.index.Pager(), pages: pages})
	}
	manifest, pages, err := tree.SnapshotManifest()
	if err != nil {
		return fmt.Errorf("uvdiagram: snapshot r-tree: %w", err)
	}
	w.u32(uint32(tree.Pager().PageSize()))
	w.bytes(manifest)
	w.u32(uint32(len(pages)))
	sections = append(sections, section{pg: tree.Pager(), pages: pages})

	bw := bufio.NewWriterSize(dst, 1<<20)
	var written int64
	emit := func(b []byte) error {
		nn, err := bw.Write(b)
		written += int64(nn)
		return err
	}
	pad := func() error {
		for written < alignUp(written) {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			written++
		}
		return nil
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], dbMagic)
	binary.LittleEndian.PutUint32(hdr[4:], dbVersionSnapshot)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(w.buf)))
	if err := emit(hdr[:]); err != nil {
		return err
	}
	if err := emit(w.buf); err != nil {
		return err
	}
	if err := pad(); err != nil {
		return err
	}
	// Object pages in id order: NewStore allocates one page per object
	// sequentially and never frees one, so page i IS object i — the
	// invariant OpenStoreSnapshot reconstructs.
	for i := 0; i < n; i++ {
		if err := emit(storePg.Peek(db.store.PageOf(int32(i)))); err != nil {
			return err
		}
	}
	for _, sec := range sections {
		if err := pad(); err != nil {
			return err
		}
		for _, pid := range sec.pages {
			if err := emit(sec.pg.Peek(pid)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveSnapshot writes Save's stream to path crash-consistently: into a
// temp file that is fsynced, renamed into place, and made durable by
// an fsync of the parent directory. A crash leaves either the old file
// or the complete new one.
func (db *DB) SaveSnapshot(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = db.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSnapMeta reads the metadata length and blob of a v5 file or
// stream positioned just past its version word, and parses them. A
// negative fileSize marks a stream of unknown length: the blob then
// grows only as its bytes arrive instead of trusting the length word.
func readSnapMeta(r io.Reader, path string, fileSize int64) (*snapMeta, error) {
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, snapErr(path, "reading header: %v", err)
	}
	metaLen := binary.LittleEndian.Uint64(lenBuf[:])
	if metaLen > snapMaxMeta || fileSize >= 0 && 16+int64(metaLen) > fileSize {
		return nil, snapErr(path, "metadata of %d bytes exceeds file of %d", metaLen, fileSize)
	}
	var meta []byte
	var err error
	if fileSize >= 0 {
		meta = make([]byte, metaLen) // bounded by the file size
		_, err = io.ReadFull(r, meta)
	} else {
		var buf bytes.Buffer
		_, err = io.CopyN(&buf, r, int64(metaLen))
		meta = buf.Bytes()
	}
	if err != nil {
		return nil, snapErr(path, "reading metadata: %v", err)
	}
	return parseSnapMeta(path, meta, 16, fileSize)
}

// parseSnapMeta decodes and validates the metadata blob, computing each
// section's byte offset and checking every section fits the file. A
// negative fileSize (a stream of unknown length) skips the fit checks:
// the stream reader then fails on the first missing page instead.
func parseSnapMeta(path string, meta []byte, metaOff, fileSize int64) (*snapMeta, error) {
	r := &metaReader{b: meta}
	m := &snapMeta{}
	m.domain = Rect{Min: Pt(r.f64(), r.f64()), Max: Pt(r.f64(), r.f64())}
	m.gx, m.gy = int(r.u32()), int(r.u32())
	if r.err == nil && (m.gx < 1 || m.gy < 1 || m.gx > MaxShards || m.gy > MaxShards || m.gx*m.gy > MaxShards) {
		return nil, snapErr(path, "implausible shard layout %d×%d", m.gx, m.gy)
	}
	readCuts := func(k int, lo, hi float64) []float64 {
		out := make([]float64, k+1)
		for i := range out {
			out[i] = r.f64()
			if r.err == nil && i > 0 && !(out[i] > out[i-1]) {
				r.err = fmt.Errorf("layout cuts not increasing at %d", i)
			}
		}
		if r.err == nil && (out[0] != lo || out[k] != hi) {
			r.err = fmt.Errorf("layout cuts do not span the domain")
		}
		return out
	}
	if r.err == nil {
		m.xs = readCuts(m.gx, m.domain.Min.X, m.domain.Max.X)
		m.ys = readCuts(m.gy, m.domain.Min.Y, m.domain.Max.Y)
	}
	m.n = int(r.u32())
	if r.err == nil && (m.n <= 0 || m.n > 1<<26) {
		return nil, snapErr(path, "implausible object count %d", m.n)
	}
	if r.err == nil {
		if len(r.b) < m.n {
			r.err = io.ErrUnexpectedEOF
		} else {
			m.dead = make([]bool, m.n)
			for i := 0; i < m.n; i++ {
				m.dead[i] = r.b[i] == 0
			}
			r.b = r.b[m.n:]
		}
	}
	if r.err == nil {
		m.crSets = make([][]int32, m.n)
		for i := 0; i < m.n && r.err == nil; i++ {
			k := int(r.u32())
			if r.err != nil {
				break
			}
			if k > m.n || k > len(r.b)/4 {
				r.err = fmt.Errorf("object %d cr-set of %d ids exceeds object count %d or metadata", i, k, m.n)
				break
			}
			ids := make([]int32, k)
			for j := range ids {
				v := r.u32()
				if r.err == nil && int(v) >= m.n {
					r.err = fmt.Errorf("object %d cr-id %d out of range", i, v)
				}
				ids[j] = int32(v)
			}
			m.crSets[i] = ids
		}
	}
	m.storePageSize = int(r.u32())
	if r.err == nil && (m.storePageSize <= 0 || m.storePageSize > snapMaxPageSize) {
		return nil, snapErr(path, "store page size %d", m.storePageSize)
	}
	m.metaEnd = metaOff + int64(len(meta))
	off := alignUp(m.metaEnd)
	if r.err == nil {
		if end := off + int64(m.n)*int64(m.storePageSize); fileSize >= 0 && end > fileSize {
			return nil, snapErr(path, "object section [%d, %d) exceeds file of %d bytes", off, end, fileSize)
		}
	}
	storeOff := off
	off = alignUp(off + int64(m.n)*int64(m.storePageSize))
	readSection := func(name string) (snapSection, error) {
		var s snapSection
		s.pageSize = int(r.u32())
		if r.err == nil && (s.pageSize <= 0 || s.pageSize > snapMaxPageSize) {
			return s, snapErr(path, "%s page size %d", name, s.pageSize)
		}
		s.manifest = r.bytes(len(r.b))
		s.pageCount = int(r.u32())
		if r.err != nil {
			return s, nil
		}
		if s.pageCount < 0 {
			return s, snapErr(path, "%s page count %d", name, s.pageCount)
		}
		s.off = off
		end := off + int64(s.pageCount)*int64(s.pageSize)
		if fileSize >= 0 && end > fileSize {
			return s, snapErr(path, "%s section [%d, %d) exceeds file of %d bytes", name, off, end, fileSize)
		}
		off = alignUp(end)
		return s, nil
	}
	if r.err == nil {
		m.shards = make([]snapSection, m.gx*m.gy)
		for i := range m.shards {
			s, err := readSection(fmt.Sprintf("shard %d", i))
			if err != nil {
				return nil, err
			}
			m.shards[i] = s
		}
	}
	if r.err == nil {
		s, err := readSection("r-tree")
		if err != nil {
			return nil, err
		}
		m.rt = s
	}
	if r.err != nil {
		return nil, snapErr(path, "metadata: %v", r.err)
	}
	if len(r.b) != 0 {
		return nil, snapErr(path, "metadata has %d trailing bytes", len(r.b))
	}
	m.storeOff = storeOff
	return m, nil
}

// Open opens a database file written by Save or SaveSnapshot, or a
// version 1–4 file from an earlier release.
//
// For a v5 snapshot, Options.Pager picks the backend: "mmap" (the
// default) maps the file read-only and serves zero-copy page reads off
// the mapping — the out-of-core mode, where opening is O(metadata) and
// the OS pages index data in on demand; "heap" Loads the file, copying
// the page images into in-heap pagers, trading resident memory for
// independence from it. Either way the answers are identical to the
// database that was saved. Version 1–4 files always Load into the heap.
// Call DB.Close when done with an mmap-backed database.
func Open(path string, opts *Options) (*DB, error) {
	mode, err := opts.pagerMode()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	version := uint32(0)
	if mode == pagerModeMmap {
		if version, err = readHeader(f, path); err != nil {
			f.Close()
			return nil, err
		}
	}
	if version != dbVersionSnapshot {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		db, err := load(f, path, opts)
		f.Close()
		return db, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m, err := readSnapMeta(f, path, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	mapping, err := pager.MapFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// The page sections become FileStores over the one shared mapping.
	return assembleSnapshot(path, m, opts, mode, mapping.Close, func(off int64, count, pageSize int) (*pager.Pager, error) {
		fs, err := pager.NewFileStore(mapping, int(off), count, pageSize)
		if err != nil {
			return nil, snapErr(path, "%v", err)
		}
		return pager.NewWithStore(fs), nil
	})
}

// loadSnapshot reads a v5 stream positioned just past its version word,
// replaying every page section into a heap pager. Nothing is sized from
// the header's page counts: pages are allocated one at a time as their
// bytes arrive, so a truncated or lying stream fails on the first
// missing page.
func loadSnapshot(br *bufio.Reader, path string, opts *Options) (*DB, error) {
	m, err := readSnapMeta(br, path, -1)
	if err != nil {
		return nil, err
	}
	pos := m.metaEnd
	var page []byte
	return assembleSnapshot(path, m, opts, pagerModeHeap, nil, func(off int64, count, pageSize int) (*pager.Pager, error) {
		if _, err := br.Discard(int(off - pos)); err != nil {
			return nil, snapErr(path, "reading padding before %d: %v", off, err)
		}
		if len(page) < pageSize {
			page = make([]byte, pageSize) // bounded by parseSnapMeta
		}
		pg := pager.New(pageSize)
		for i := 0; i < count; i++ {
			if _, err := io.ReadFull(br, page[:pageSize]); err != nil {
				return nil, snapErr(path, "reading page %d of section at %d: %v", i, off, err)
			}
			pg.Alloc(page[:pageSize])
		}
		pos = off + int64(count)*int64(pageSize)
		pg.ResetStats() // replay writes are not workload I/O
		return pg, nil
	})
}

// assembleSnapshot builds the database from parsed v5 metadata. section
// materializes one page section as a pager; it is called in file order
// (objects, shards, R-tree), which the stream reader relies on. closer
// releases the backing on failure and becomes DB.closer on success.
func assembleSnapshot(path string, m *snapMeta, opts *Options, mode string, closer func() error,
	section func(off int64, count, pageSize int) (*pager.Pager, error)) (*DB, error) {
	fail := func(err error) (*DB, error) {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	storePg, err := section(m.storeOff, m.n, m.storePageSize)
	if err != nil {
		return fail(err)
	}
	store, err := uncertain.OpenStoreSnapshot(storePg, m.n, m.dead)
	if err != nil {
		return fail(snapErr(path, "%v", err))
	}

	bopts := opts.toBuildOptions()
	reg := core.NewCRState(m.crSets)
	db := &DB{store: store, domain: m.domain, bopts: bopts, strategy: opts.layout(), egc: epoch.NewDomain()}
	db.cr = reg
	db.topo = core.NewTopology(reg.Len(), bopts.RegionSamples)
	db.pagerMode = mode
	lo := newShardLayout(0, m.gx, m.gy, m.xs, m.ys)
	shapes := make([]core.IndexStats, len(lo.shards))
	t0 := time.Now()
	for i := range lo.shards {
		sec := m.shards[i]
		pg, err := section(sec.off, sec.pageCount, sec.pageSize)
		if err != nil {
			return fail(err)
		}
		ix, err := core.OpenUVIndexSnapshot(sec.manifest, store, reg, pg)
		if err != nil {
			return fail(snapErr(path, "shard %d: %v", i, err))
		}
		if ix.Domain() != lo.shards[i].rect {
			return fail(snapErr(path, "shard %d covers %v, layout expects %v", i, ix.Domain(), lo.shards[i].rect))
		}
		ix.SetReclaimDomain(db.egc)
		lo.shards[i].epoch.Store(&indexEpoch{index: ix})
		shapes[i] = ix.Stats()
	}
	rtPg, err := section(m.rt.off, m.rt.pageCount, m.rt.pageSize)
	if err != nil {
		return fail(err)
	}
	tree, err := rtree.OpenSnapshot(m.rt.manifest, rtPg)
	if err != nil {
		return fail(snapErr(path, "%v", err))
	}
	tree.SetReclaimDomain(db.egc)
	db.tree.Store(tree)
	db.layout.Store(lo)
	built := BuildStats{Strategy: bopts.Strategy, N: store.Live(), Index: aggregateIndexStats(shapes)}
	built.TotalDur = time.Since(t0)
	db.built.Store(&built)
	db.closer = closer
	if err := db.startConfiguredMaintainer(opts); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}
