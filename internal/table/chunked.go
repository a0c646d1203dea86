package table

// ChunkedBuilder is the streaming construction path behind IngestCSV:
// it encodes rows into dictionary codes a batch at a time, in column
// chunks, and never holds a raw (un-interned) string form of the
// table. Each distinct value is allocated exactly once — the interned
// copy lives in the per-attribute dictionary and is shared by every
// tuple that carries the value — so transient memory is
// O(chunk + batch + dictionary) instead of O(table). Chunks start at
// firstChunkRows rows and double up to chunkRows, so a small table
// pays for a small chunk, not for the full-size one. Flush keeps a
// table that fits in one chunk as that chunk, concatenates a larger
// one into an exact-size row store, and publishes the finished
// dictionary encoding on the returned Table, so the first solve starts
// from a hot encoding instead of re-interning every column.
//
// Append validates a row and copies its cells into the filling batch;
// a full batch is interned column by column, each column's dictionary
// in batch order, so codes are numbered by first appearance exactly as
// a row-at-a-time interner numbers them. In the ramp's chunks (the
// first rampRows rows) a batch holds firstChunkRows rows and is
// interned inline. In full-size chunks a batch holds batchRows rows,
// and with GOMAXPROCS > 1 each of its columns is interned on its own
// goroutine (column a on goroutine a mod maxInternGoroutines, for a CSV
// with more columns than that) while the caller fills the other batch
// buffer; at most one batch is in flight, and the next intern and
// Flush wait for it. Flush then fills the rows' tuple strings from the
// finished dictionaries, split by row range past the ramp.
//
// Validation matches Insert row for row — arity, then a positive
// finite weight, then duplicate identifier, then the reserved-value
// check, with identical error messages — so a CSV rejected by the seed
// ReadCSV path is rejected with the same error here. Duplicate
// detection is O(1) without an id map while identifiers arrive in
// increasing order (the common case: WriteCSV output and generated
// streams); the first out-of-order identifier materializes the map
// once.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/schema"
)

// freshPrefixBytes is freshPrefix for []byte prefix checks.
var freshPrefixBytes = []byte(freshPrefix)

// Chunk schedule of the builder's segmented storage: row structs,
// tuple backing and column codes are allocated in chunks, the first of
// firstChunkRows rows and each later one twice the previous, up to
// chunkRows. Full-size chunks are big enough to amortize allocation
// and small enough that a partly filled tail chunk is noise; the ramp
// keeps a 100-row table from allocating a 65,536-row chunk. rampRows
// is what the ramp's chunks hold (256 + 512 + … + 32,768), and
// batchRows the batch size in full-size chunks; both chunk sizes are
// multiples of their batch size, so a batch never spans two chunks.
const (
	firstChunkRows = 1 << 8
	chunkRows      = 1 << 16
	rampRows       = chunkRows - firstChunkRows
	batchRows      = 1 << 12

	// maxInternGoroutines bounds a batch's goroutines: the arity comes
	// from the input's header.
	maxInternGoroutines = 16
)

// ChunkedBuilder streams rows into a dictionary-encoded Table.
// Not safe for concurrent use. Sealed by Flush.
type ChunkedBuilder struct {
	sc    *schema.Schema
	arity int

	// Per-attribute interning state, touched by one goroutine at a
	// time: the caller, or the batch goroutine interning that column.
	dicts []map[Value]int32 // value -> code
	revs  [][]Value         // code -> interned value (the single copy)

	// Segmented storage: full chunks plus the currently filling one.
	// colCur and tupCur are allocated at full chunk length; a chunk's
	// codes are written by its batches, its tuples by Flush.
	colChunks [][][]int32 // per attribute: completed chunks
	colCur    [][]int32   // per attribute: current chunk
	rowChunks [][]Row     // completed row chunks
	rowCur    []Row       // current row chunk
	tupCur    []Value     // current chunk's tuple backing (arity*chunkCap)
	chunkCap  int         // row capacity of the current (or next) chunk

	// fill collects accepted rows' cells; spare is the buffer of the
	// batch in flight, owned by its goroutines until wg is done.
	fill, spare *batch
	wg          sync.WaitGroup

	n      int              // rows accepted so far
	nextID int              // watermark, same rule as Table.nextID
	lastID int              // largest id seen; fast-path duplicate guard
	idSeen map[int]struct{} // ids of rows [0, seen): see extendIDSeen
	seen   int

	sealed bool
}

// batch holds the cells of consecutive accepted rows, row-major, until
// they are interned: cell i is buf[ends[i]:ends[i+1]]. Its first row
// sits at offset lo of the current chunk; dst[a] receives column a's
// codes.
type batch struct {
	buf  []byte
	ends []int
	dst  [][]int32
	lo   int
}

// NewChunkedBuilder returns a streaming builder for tables over sc.
func NewChunkedBuilder(sc *schema.Schema) *ChunkedBuilder {
	if sc == nil {
		panic("table: nil schema")
	}
	k := sc.Arity()
	b := &ChunkedBuilder{
		sc:        sc,
		arity:     k,
		dicts:     make([]map[Value]int32, k),
		revs:      make([][]Value, k),
		colChunks: make([][][]int32, k),
		colCur:    make([][]int32, k),
		chunkCap:  firstChunkRows,
		fill:      &batch{ends: make([]int, 1, firstChunkRows*k+1)},
		nextID:    1,
		lastID:    -1 << 62,
	}
	for a := 0; a < k; a++ {
		b.dicts[a] = make(map[Value]int32, 256)
	}
	return b
}

// Len returns the number of rows accepted so far.
func (b *ChunkedBuilder) Len() int { return b.n }

// AppendAuto adds a row under the next watermark identifier, like
// Table.Append. cells are the attribute values in schema order; they
// are copied, never retained.
func (b *ChunkedBuilder) AppendAuto(cells [][]byte, weight float64) error {
	return b.Append(b.nextID, cells, weight)
}

// Append adds a row with an explicit identifier, like Table.Insert.
// cells are the attribute values in schema order; they are copied,
// never retained — callers may reuse the backing buffers.
func (b *ChunkedBuilder) Append(id int, cells [][]byte, weight float64) error {
	if b.sealed {
		panic("table: ChunkedBuilder used after Flush")
	}
	if len(cells) != b.arity {
		return fmt.Errorf("table: tuple arity %d does not match schema %s", len(cells), b.sc)
	}
	if err := checkWeight(id, weight); err != nil {
		return err
	}
	if id <= b.lastID {
		// Out-of-order identifier: check it against every id so far.
		b.extendIDSeen()
		if _, dup := b.idSeen[id]; dup {
			return fmt.Errorf("table: duplicate tuple identifier %d", id)
		}
	}
	for _, v := range cells {
		if len(v) > 0 && v[0] == '\x00' && !bytes.HasPrefix(v, freshPrefixBytes) {
			return fmt.Errorf("table: tuple %d uses a reserved value", id)
		}
	}

	// Row accepted: queue its cells for interning.
	if b.rowCur == nil {
		b.rowCur = make([]Row, 0, b.chunkCap)
		if b.arity > 0 {
			b.tupCur = make([]Value, b.chunkCap*b.arity)
			for a := range b.colCur {
				b.colCur[a] = make([]int32, b.chunkCap)
			}
		}
	}
	var tup Tuple
	if b.arity > 0 {
		at := len(b.rowCur) * b.arity
		tup = Tuple(b.tupCur[at : at+b.arity : at+b.arity])
		bt := b.fill
		for _, cell := range cells {
			bt.buf = append(bt.buf, cell...)
			bt.ends = append(bt.ends, len(bt.buf))
		}
	}
	b.rowCur = append(b.rowCur, Row{ID: id, Tuple: tup, Weight: weight})
	b.n++
	if id >= b.nextID {
		b.nextID = id + 1
	}
	if id > b.lastID {
		b.lastID = id
	}

	size := firstChunkRows
	if b.chunkCap == chunkRows {
		size = batchRows
	}
	if len(b.rowCur)-b.fill.lo == size {
		b.internBatch()
	}
	if len(b.rowCur) == b.chunkCap {
		b.flushChunk()
	}
	return nil
}

// extendIDSeen adds the ids of the rows accepted since its last call to
// idSeen. Only an out-of-order id calls it, so rows whose ids ascend
// never touch the map. The new rows are the last n-seen: the tail of
// rowCur, then of the completed chunks before it.
func (b *ChunkedBuilder) extendIDSeen() {
	if b.idSeen == nil {
		b.idSeen = make(map[int]struct{}, b.n)
	}
	rows, k := b.rowCur, len(b.rowChunks)
	for todo := b.n - b.seen; todo > 0; {
		from := max(len(rows)-todo, 0)
		for _, r := range rows[from:] {
			b.idSeen[r.ID] = struct{}{}
		}
		todo -= len(rows) - from
		if k--; k >= 0 {
			rows = b.rowChunks[k]
		}
	}
	b.seen = b.n
}

// internBatch interns the filling batch into the current chunk's
// column codes and starts the next batch where it ends. It first waits
// for the batch in flight, whose columns' dictionaries it is about to
// extend.
func (b *ChunkedBuilder) internBatch() {
	b.wg.Wait()
	bt := b.fill
	if len(b.rowCur) == bt.lo || b.arity == 0 {
		return
	}
	bt.dst = bt.dst[:0]
	for _, col := range b.colCur {
		bt.dst = append(bt.dst, col[bt.lo:len(b.rowCur)])
	}
	if b.chunkCap < chunkRows || runtime.GOMAXPROCS(0) == 1 {
		b.internColumns(bt, 0, 1)
	} else {
		g := min(b.arity, maxInternGoroutines)
		b.wg.Add(g)
		for w := range g {
			go func() {
				defer b.wg.Done()
				b.internColumns(bt, w, g)
			}()
		}
		if b.spare == nil {
			b.spare = &batch{ends: []int{0}}
		}
		b.fill, b.spare = b.spare, bt
	}
	next := b.fill
	next.buf, next.ends, next.lo = next.buf[:0], next.ends[:1], len(b.rowCur)
}

// internColumns interns the batch's columns w, w+g, w+2g, … in turn.
// Column a's codes go to bt.dst[a], in row order: a hit is a map lookup
// (the []byte→string conversion in the lookup does not allocate), a
// miss allocates the value's single interned copy and the next code.
func (b *ChunkedBuilder) internColumns(bt *batch, w, g int) {
	for a := w; a < b.arity; a += g {
		dict, rev, dst := b.dicts[a], b.revs[a], bt.dst[a]
		for j := range dst {
			i := j*b.arity + a
			cell := bt.buf[bt.ends[i]:bt.ends[i+1]]
			c, ok := dict[string(cell)]
			if !ok {
				v := Value(cell)
				c = int32(len(rev))
				dict[v] = c
				rev = append(rev, v)
			}
			dst[j] = c
		}
		b.revs[a] = rev
	}
}

// flushChunk seals the current chunk and doubles the next one's
// capacity, up to chunkRows. The tuple backing stays alive — the rows
// reference it — only the chunk headers move; a batch in flight keeps
// writing the sealed chunk's codes through its own slices.
func (b *ChunkedBuilder) flushChunk() {
	n := len(b.rowCur)
	b.rowChunks = append(b.rowChunks, b.rowCur)
	b.rowCur = nil
	b.tupCur = nil
	for a := 0; a < b.arity; a++ {
		b.colChunks[a] = append(b.colChunks[a], b.colCur[a][:n])
		b.colCur[a] = nil
	}
	b.chunkCap = min(2*b.chunkCap, chunkRows)
	b.fill.lo = 0
}

// Flush publishes the table and the dictionary encoding built during
// the stream, and seals the builder. A table that fits in one chunk
// keeps that chunk as its row store and columns; a larger one is
// concatenated into exact-size storage. Flush returns after every
// goroutine the builder started has finished.
func (b *ChunkedBuilder) Flush() *Table {
	if b.sealed {
		panic("table: ChunkedBuilder used after Flush")
	}
	b.sealed = true
	b.internBatch()
	b.wg.Wait()
	if len(b.rowCur) > 0 {
		b.flushChunk()
	}
	t := New(b.sc)
	t.nextID = b.nextID
	if b.n == 0 {
		return t
	}

	// Each column is published as its single-attribute projection.
	e := &encoding{n: b.n, proj: make(map[schema.AttrSet]*projection, b.arity)}
	t.rows = concatChunks(b.rowChunks, b.n)
	cols := make([][]int32, b.arity)
	for a := range cols {
		cols[a] = concatChunks(b.colChunks[a], b.n)
		e.proj[schema.Singleton(a)] = &projection{codes: cols[a], groups: len(b.revs[a]), dict: b.dicts[a]}
	}
	b.fillTuples(t.rows, cols)
	t.enc.Store(e)
	return t
}

// fillTuples writes every row's tuple from its column codes and the
// finished dictionaries. Past the ramp, with GOMAXPROCS > 1, the rows
// are split into one contiguous range per P.
func (b *ChunkedBuilder) fillTuples(rows []Row, cols [][]int32) {
	revs := b.revs
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tup := rows[i].Tuple
			for a, col := range cols {
				tup[a] = revs[a][col[i]]
			}
		}
	}
	p := runtime.GOMAXPROCS(0)
	if len(rows) <= rampRows || p == 1 {
		fill(0, len(rows))
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := range p {
		go func() {
			defer wg.Done()
			fill(w*len(rows)/p, (w+1)*len(rows)/p)
		}()
	}
	wg.Wait()
}

// concatChunks returns the n elements held by chunks as one slice: the
// single chunk itself when there is one, otherwise an exact-size copy,
// releasing each chunk as it is copied to bound peak memory.
func concatChunks[E any](chunks [][]E, n int) []E {
	if len(chunks) == 1 {
		return chunks[0]
	}
	out := make([]E, 0, n)
	for ci, ch := range chunks {
		out = append(out, ch...)
		chunks[ci] = nil
	}
	return out
}
