package main

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"strconv"

	"repro/fdrepair"
)

// shape is one of the two table shapes the in-process workloads
// alternate between, with the FD set that makes it interesting.
type shape struct {
	name string
	fds  []string
	gen  func(n int, rng *rand.Rand) []byte
}

// shapes: chain (A→B, AB→C) over uniform values with ~10 rows per A
// value, which is ingest-bound; marriage-sparse (A→B, B→A, B→C) with
// 3-row (A, B) blocks and ~n/3 distinct values per side, which is
// solve- and matching-bound (many small sparse-matcher components).
var shapes = []shape{
	{"chain", []string{"A -> B", "A B -> C"}, chainCSV},
	{"marriage-sparse", []string{"A -> B", "B -> A", "B -> C"}, func(n int, rng *rand.Rand) []byte { return marriageCSV(n, 1, rng) }},
}

// sessionShapes are the session-updates tables. Their marriage-sparse
// table draws A and B from twice as many values, halving the marriage
// graph's mean degree from 1 to 1/2. At degree 1 the graph sits at the
// giant-component threshold: the largest matching component, which
// nearly every incremental repair re-matches, changes size ~2× from seed
// to seed, and so did op latency.
var sessionShapes = []shape{
	shapes[0],
	{"marriage-sparse", shapes[1].fds, func(n int, rng *rand.Rand) []byte { return marriageCSV(n, 2, rng) }},
}

const csvHeader = "id,A,B,C,w\n"

// appendRow writes one CSV row: id, three prefixed integer values and
// a weight.
func appendRow(buf []byte, id int, pa byte, a int, pb byte, b int, pc byte, c int, w string) []byte {
	buf = strconv.AppendInt(buf, int64(id), 10)
	for _, v := range [3]struct {
		p byte
		x int
	}{{pa, a}, {pb, b}, {pc, c}} {
		buf = append(buf, ',', v.p)
		buf = strconv.AppendInt(buf, int64(v.x), 10)
	}
	buf = append(buf, ',')
	buf = append(buf, w...)
	return append(buf, '\n')
}

var intWeights = []string{"1", "2", "3", "4"}

// chainCSV: A, B and C uniform over n/10 values each, weights 1..4.
func chainCSV(n int, rng *rand.Rand) []byte {
	d := max(n/10, 2)
	buf := make([]byte, 0, n*34+len(csvHeader))
	buf = append(buf, csvHeader...)
	for i := 1; i <= n; i++ {
		buf = appendRow(buf, i, 'v', rng.Intn(d), 'v', rng.Intn(d), 'v', rng.Intn(d), intWeights[rng.Intn(4)])
	}
	return buf
}

// marriageCSV: 3-row blocks sharing a random (A, B) pair drawn from
// spread·n/3 values per side, C over 3 values, weights 1..4.
func marriageCSV(n, spread int, rng *rand.Rand) []byte {
	blocks := (n + 2) / 3
	buf := make([]byte, 0, n*34+len(csvHeader))
	buf = append(buf, csvHeader...)
	for i := 1; i <= n; {
		a, b := rng.Intn(spread*blocks), rng.Intn(spread*blocks)
		for r := 0; r < 3 && i <= n; r, i = r+1, i+1 {
			buf = appendRow(buf, i, 'a', a, 'b', b, 'c', rng.Intn(3), intWeights[rng.Intn(4)])
		}
	}
	return buf
}

// randomCSV: A, B and C uniform over max(n/div, 2) values; prob picks
// weights in (0, 1] (for MPD) instead of 1..4.
func randomCSV(n, div int, prob bool, rng *rand.Rand) []byte {
	d := max(n/div, 2)
	buf := []byte(csvHeader)
	for i := 1; i <= n; i++ {
		buf = appendRow(buf, i, 'v', rng.Intn(d), 'v', rng.Intn(d), 'v', rng.Intn(d), weight(prob, rng))
	}
	return buf
}

// cleanCSV: rows that satisfy A→B→C except for a noise fraction of B
// and C cells, with ~4 rows per A value. Conflicts stay sparse, so
// CQA's per-component enumeration stays small.
func cleanCSV(n int, noise float64, rng *rand.Rand) []byte {
	d := max(n/4, 2)
	buf := []byte(csvHeader)
	for i := 1; i <= n; i++ {
		a := rng.Intn(d)
		b, c := a/2, a/4
		if rng.Float64() < noise {
			b = rng.Intn(d)
		}
		if rng.Float64() < noise {
			c = rng.Intn(d)
		}
		buf = appendRow(buf, i, 'v', a, 'v', b, 'v', c, weight(false, rng))
	}
	return buf
}

// blockCSV: 4-row blocks whose values carry the block number, so rows
// of different blocks never conflict; a dirty fraction of blocks draws
// each attribute from two values, the rest are duplicates of one tuple.
// Conflict components stay within 4 rows and few of them exist, which
// keeps the exact cover search (no component split) from blowing up.
func blockCSV(n int, dirty float64, rng *rand.Rand) []byte {
	buf := []byte(csvHeader)
	for i := 1; i <= n; {
		g := i // first id of the block: unique per block
		spread := 1
		if rng.Float64() < dirty {
			spread = 2
		}
		for r := 0; r < 4 && i <= n; r, i = r+1, i+1 {
			buf = appendRow(buf, i, 'v', 2*g+rng.Intn(spread), 'v', 2*g+rng.Intn(spread), 'v', 2*g+rng.Intn(spread), weight(false, rng))
		}
	}
	return buf
}

func weight(prob bool, rng *rand.Rand) string {
	if prob {
		return strconv.FormatFloat(float64(1+rng.Intn(9))/10, 'g', -1, 64)
	}
	return intWeights[rng.Intn(4)]
}

// logGrid is k sizes log-spaced from lo to hi inclusive.
func logGrid(lo, hi, k int) []int {
	if k == 1 {
		return []int{lo}
	}
	out := make([]int, k)
	for j := range out {
		out[j] = int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), float64(j)/float64(k-1))))
	}
	return out
}

// tableBytes renders a table's rows (id, values, weight) for digesting
// without going through CSV.
func tableBytes(t *fdrepair.Table) []byte {
	var buf []byte
	for _, r := range t.Rows() {
		buf = strconv.AppendInt(buf, int64(r.ID), 10)
		for _, v := range r.Tuple {
			buf = append(buf, 0x1f)
			buf = append(buf, v...)
		}
		buf = append(buf, 0x1f)
		buf = strconv.AppendFloat(buf, r.Weight, 'g', -1, 64)
		buf = append(buf, '\n')
	}
	return buf
}

// crcWriter digests what is written to it.
type crcWriter struct {
	sum uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	w.n += int64(len(p))
	return len(p), nil
}

// digest is crc32 over b after the optional tamper hook.
func (c *config) digest(b []byte) uint32 {
	if c.tamper != nil {
		b = c.tamper(bytes.Clone(b))
	}
	return crc32.ChecksumIEEE(b)
}
