package table

// ChunkedBuilder is the streaming construction path behind IngestCSV:
// it encodes rows straight into dictionary codes as they arrive, in
// column chunks, and never holds a raw (un-interned) string form of
// the table. Each distinct value is allocated exactly once — the
// interned copy lives in the per-attribute dictionary and is shared by
// every tuple that carries the value — so transient memory is
// O(chunk + dictionary) instead of O(table). Chunks start at
// firstChunkRows rows and double up to chunkRows, so a small table
// pays for a small chunk, not for the full-size one. Flush keeps a
// table that fits in one chunk as that chunk, concatenates a larger
// one into an exact-size row store, and publishes the finished
// dictionary encoding on the returned Table, so the first solve starts
// from a hot encoding instead of re-interning every column.
//
// Validation matches Insert row for row — arity, then positive weight,
// then duplicate identifier, then the reserved-value check, with
// identical error messages — so a CSV rejected by the seed ReadCSV
// path is rejected with the same error here. Duplicate detection is
// O(1) without an id map while identifiers arrive in increasing order
// (the common case: WriteCSV output and generated streams); the first
// out-of-order identifier materializes the map once.

import (
	"bytes"
	"fmt"

	"repro/internal/schema"
)

// freshPrefixBytes is freshPrefix for []byte prefix checks.
var freshPrefixBytes = []byte(freshPrefix)

// Chunk schedule of the builder's segmented storage: row structs,
// tuple backing and column codes are allocated in chunks, the first of
// firstChunkRows rows and each later one twice the previous, up to
// chunkRows. Full-size chunks are big enough to amortize allocation
// and small enough that a partly filled tail chunk is noise; the ramp
// keeps a 100-row table from allocating a 65,536-row chunk.
const (
	firstChunkRows = 1 << 8
	chunkRows      = 1 << 16
)

// ChunkedBuilder streams rows into a dictionary-encoded Table.
// Not safe for concurrent use. Sealed by Flush.
type ChunkedBuilder struct {
	sc    *schema.Schema
	arity int

	// Per-attribute interning state.
	dicts []map[Value]int32 // value -> code
	revs  [][]Value         // code -> interned value (the single copy)

	// Segmented storage: full chunks plus the currently filling one.
	colChunks [][][]int32 // per attribute: completed chunks
	colCur    [][]int32   // per attribute: current chunk
	rowChunks [][]Row     // completed row chunks
	rowCur    []Row       // current row chunk
	tupCur    []Value     // current chunk's tuple backing (arity*chunkCap)
	chunkCap  int         // row capacity of the current (or next) chunk

	n      int              // rows accepted so far
	nextID int              // watermark, same rule as Table.nextID
	lastID int              // largest id seen; fast-path duplicate guard
	idSeen map[int]struct{} // materialized on first out-of-order id

	sealed bool
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
// are interned, never retained.
func (b *ChunkedBuilder) AppendAuto(cells [][]byte, weight float64) error {
	return b.Append(b.nextID, cells, weight)
}

// Append adds a row with an explicit identifier, like Table.Insert.
// cells are the attribute values in schema order; they are interned,
// never retained — callers may reuse the backing buffers.
func (b *ChunkedBuilder) Append(id int, cells [][]byte, weight float64) error {
	if b.sealed {
		panic("table: ChunkedBuilder used after Flush")
	}
	if len(cells) != b.arity {
		return fmt.Errorf("table: tuple arity %d does not match schema %s", len(cells), b.sc)
	}
	if weight <= 0 {
		return fmt.Errorf("table: tuple %d has non-positive weight %v", id, weight)
	}
	if id <= b.lastID {
		// Out-of-order identifier: fall back to the materialized set.
		if b.idSeen == nil {
			b.idSeen = make(map[int]struct{}, b.n)
			for _, ch := range b.rowChunks {
				for _, r := range ch {
					b.idSeen[r.ID] = struct{}{}
				}
			}
			for _, r := range b.rowCur {
				b.idSeen[r.ID] = struct{}{}
			}
		}
		if _, dup := b.idSeen[id]; dup {
			return fmt.Errorf("table: duplicate tuple identifier %d", id)
		}
	}
	for _, v := range cells {
		if len(v) > 0 && v[0] == '\x00' && !bytes.HasPrefix(v, freshPrefixBytes) {
			return fmt.Errorf("table: tuple %d uses a reserved value", id)
		}
	}

	// Row accepted: intern cells and encode.
	if b.rowCur == nil {
		b.rowCur = make([]Row, 0, b.chunkCap)
		if b.arity > 0 {
			b.tupCur = make([]Value, 0, b.chunkCap*b.arity)
		}
	}
	var tup Tuple
	if b.arity > 0 {
		start := len(b.tupCur)
		for a, cell := range cells {
			dict := b.dicts[a]
			// The compiler elides the []byte→string conversion in the
			// map lookup; a string is allocated only on a miss.
			c, ok := dict[string(cell)]
			if !ok {
				v := Value(cell) // the single interned copy
				c = int32(len(b.revs[a]))
				dict[v] = c
				b.revs[a] = append(b.revs[a], v)
			}
			b.tupCur = append(b.tupCur, b.revs[a][c])
			if b.colCur[a] == nil {
				b.colCur[a] = make([]int32, 0, b.chunkCap)
			}
			b.colCur[a] = append(b.colCur[a], c)
		}
		tup = Tuple(b.tupCur[start:len(b.tupCur):len(b.tupCur)])
	}
	b.rowCur = append(b.rowCur, Row{ID: id, Tuple: tup, Weight: weight})
	b.n++
	if id >= b.nextID {
		b.nextID = id + 1
	}
	if id > b.lastID {
		b.lastID = id
	}
	if b.idSeen != nil {
		b.idSeen[id] = struct{}{}
	}

	if len(b.rowCur) == b.chunkCap {
		b.flushChunk()
	}
	return nil
}

// flushChunk seals the current chunk and doubles the next one's
// capacity, up to chunkRows. The tuple backing stays alive — the rows
// reference it — only the chunk headers move.
func (b *ChunkedBuilder) flushChunk() {
	b.rowChunks = append(b.rowChunks, b.rowCur)
	b.rowCur = nil
	b.tupCur = nil
	for a := 0; a < b.arity; a++ {
		b.colChunks[a] = append(b.colChunks[a], b.colCur[a])
		b.colCur[a] = nil
	}
	b.chunkCap = min(2*b.chunkCap, chunkRows)
}

// Flush publishes the table and the dictionary encoding built during
// the stream, and seals the builder. A table that fits in one chunk
// keeps that chunk as its row store and columns; a larger one is
// concatenated into exact-size storage.
func (b *ChunkedBuilder) Flush() *Table {
	if b.sealed {
		panic("table: ChunkedBuilder used after Flush")
	}
	b.sealed = true
	if len(b.rowCur) > 0 {
		b.flushChunk()
	}
	t := New(b.sc)
	t.nextID = b.nextID
	if b.n == 0 {
		return t
	}

	e := &encoding{
		n:     b.n,
		cols:  make([][]int32, b.arity),
		card:  make([]int, b.arity),
		dicts: b.dicts,
		proj:  make(map[schema.AttrSet]*projection),
	}
	t.rows = concatChunks(b.rowChunks, b.n)
	for a := 0; a < b.arity; a++ {
		e.cols[a] = concatChunks(b.colChunks[a], b.n)
		e.card[a] = len(b.revs[a])
	}
	t.enc.Store(e)
	return t
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
