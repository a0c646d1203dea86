package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
)

// ingestTablesEqual fails the test unless the two tables are
// byte-identical in everything observable: schema, row ids, tuples,
// weights, the id watermark, and — when both encodings are forced —
// the dictionary codes of every singleton and the full attribute set.
func ingestTablesEqual(t *testing.T, got, want *Table, in string) {
	t.Helper()
	if gs, ws := got.Schema().String(), want.Schema().String(); gs != ws {
		t.Fatalf("schema mismatch: %s vs %s\ninput: %q", gs, ws, in)
	}
	if got.Len() != want.Len() {
		t.Fatalf("row count mismatch: %d vs %d\ninput: %q", got.Len(), want.Len(), in)
	}
	for i := range want.rows {
		g, w := got.rows[i], want.rows[i]
		if g.ID != w.ID || g.Weight != w.Weight || !g.Tuple.Equal(w.Tuple) {
			t.Fatalf("row %d mismatch: %+v vs %+v\ninput: %q", i, g, w, in)
		}
	}
	if got.nextID != want.nextID {
		t.Fatalf("nextID mismatch: %d vs %d\ninput: %q", got.nextID, want.nextID, in)
	}
	// The ingested table publishes its encoding eagerly; it must agree
	// code-for-code with the lazily built one.
	var all schema.AttrSet
	for a := 0; a < want.Schema().Arity(); a++ {
		all = all.Union(schema.Singleton(a))
		checkCodesEqual(t, got, want, schema.Singleton(a), in)
	}
	if want.Schema().Arity() > 1 {
		checkCodesEqual(t, got, want, all, in)
	}
}

func checkCodesEqual(t *testing.T, got, want *Table, attrs schema.AttrSet, in string) {
	t.Helper()
	gc, gg := got.ProjectionCodes(attrs)
	wc, wg := want.ProjectionCodes(attrs)
	if gg != wg {
		t.Fatalf("projection %v group count mismatch: %d vs %d\ninput: %q", attrs, gg, wg, in)
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("projection %v code mismatch at row %d: %d vs %d\ninput: %q", attrs, i, gc[i], wc[i], in)
		}
	}
}

// TestIngestCSVMatchesBufferedFixed pins IngestCSV against the seed
// reader on the corner cases the streaming scanner must replicate:
// quoted fields with embedded commas/newlines/quotes, id/w columns in
// odd positions, blank and all-space lines, CRLF endings, leading
// space before quoted and unquoted fields, and missing id/w columns.
func TestIngestCSVMatchesBufferedFixed(t *testing.T) {
	inputs := []string{
		"A,B\nx,y\nz,w\n",
		"id,A,w\n1,x,2\n2,y,0.5\n",
		"w,A,id\n1,x,10\n2,y,3\n",                       // odd column order
		"A,id,B\nx,5,y\nz,2,q\n",                        // id in the middle, no w
		"A,B\n\"a,b\",\"c\nd\"\n\"say \"\"hi\"\"\",z\n", // commas, newlines, quotes
		"A,B\n\nx,y\n\n\nz,w\n\n",                       // blank lines everywhere
		"A,B\r\nx,y\r\nz,w\r\n",                         // CRLF
		"A,B\n  x,  \"y\"\n\" z\",q\n",                  // leading space, quoted & not
		"A\n\"multi\nline\nvalue\"\nplain\n",            // record spanning 3 lines
		"id,A,w\n3,x,1\n1,y,1\n2,z,1\n",                 // out-of-order ids
		"id,A,w\n-5,x,1\n0,y,1\n7,z,1\n",                // negative and zero ids
		"A,B\nx,y",                                      // no trailing newline
		"A,B\n\"x\",\"y\"",                              // quoted, no trailing newline
		"id,w\n1,2\n2,3\n",                              // zero attributes
		"A\n\n\n",                                       // header only plus blanks
		"A, B\nx, y\n",                                  // space after comma (trimmed)
		"héllo,wörld\nä,ö\n",                            // non-ASCII
	}
	for _, in := range inputs {
		want, werr := ReadCSVBuffered(strings.NewReader(in), "R")
		got, gerr := IngestCSV(strings.NewReader(in), "R")
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("outcome mismatch: buffered=%v ingest=%v\ninput: %q", werr, gerr, in)
		}
		if werr != nil {
			continue
		}
		ingestTablesEqual(t, got, want, in)
	}
}

// csvGenValues is the value pool for the randomized differential test:
// plain values, quote-requiring values, and whitespace edge cases.
var csvGenValues = []string{
	"", "x", "hello", "v1", "v2", "v3",
	"a,b", "line1\nline2", `say "hi"`, "a\r\nb",
	" lead", "trail ", "  ", "héllo", "0", "-1", "nope",
}

// writeCSVField appends one field, quoting when the value demands it
// and randomly quoting (valid) plain values.
func writeCSVField(sb *strings.Builder, v string, r *rand.Rand) {
	must := strings.ContainsAny(v, ",\"\n\r") || strings.HasPrefix(v, " ")
	if must || r.Intn(5) == 0 {
		sb.WriteByte('"')
		sb.WriteString(strings.ReplaceAll(v, `"`, `""`))
		sb.WriteByte('"')
		return
	}
	sb.WriteString(v)
}

// TestIngestCSVDifferentialRandom generates randomized CSVs — shuffled
// id/w column positions, quoted fields with embedded separators, blank
// lines, occasional bad ids/weights/duplicates — and requires
// IngestCSV and the seed ReadCSVBuffered to agree: identical tables on
// success, failure on both sides otherwise.
func TestIngestCSVDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	for iter := 0; iter < 400; iter++ {
		nattr := 1 + r.Intn(4)
		cols := make([]string, nattr)
		for i := range cols {
			cols[i] = string(rune('A' + i))
		}
		if r.Intn(2) == 0 {
			cols = append(cols[:r.Intn(len(cols)+1)], append([]string{"id"}, cols[r.Intn(len(cols)+1):]...)...)
		}
		if r.Intn(2) == 0 {
			cols = append(cols[:r.Intn(len(cols)+1)], append([]string{"w"}, cols[r.Intn(len(cols)+1):]...)...)
		}
		var sb strings.Builder
		for i, c := range cols {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
		nrows := r.Intn(30)
		nextID := 1 + r.Intn(3)
		for row := 0; row < nrows; row++ {
			if r.Intn(10) == 0 {
				sb.WriteByte('\n') // blank line
			}
			for i, c := range cols {
				if i > 0 {
					sb.WriteByte(',')
				}
				switch c {
				case "id":
					switch r.Intn(12) {
					case 0:
						sb.WriteString("bad-id")
					case 1:
						sb.WriteString(fmt.Sprint(1 + r.Intn(nextID))) // likely duplicate
					default:
						sb.WriteString(fmt.Sprint(nextID))
						nextID += 1 + r.Intn(3)
					}
				case "w":
					switch r.Intn(12) {
					case 0:
						sb.WriteString("zero")
					case 1:
						sb.WriteString("0")
					default:
						sb.WriteString([]string{"1", "2", "0.5", "1e2", "3.25"}[r.Intn(5)])
					}
				default:
					writeCSVField(&sb, csvGenValues[r.Intn(len(csvGenValues))], r)
				}
			}
			if row < nrows-1 || r.Intn(2) == 0 {
				sb.WriteByte('\n')
			}
		}
		if r.Intn(5) == 0 {
			sb.WriteByte('\n') // trailing blank line
		}
		in := sb.String()
		want, werr := ReadCSVBuffered(strings.NewReader(in), "R")
		got, gerr := IngestCSV(strings.NewReader(in), "R")
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("outcome mismatch: buffered=%v ingest=%v\ninput: %q", werr, gerr, in)
		}
		if werr != nil {
			continue
		}
		ingestTablesEqual(t, got, want, in)
	}
}

// TestIngestCSVLineNumbers pins the physical line numbers in ReadCSV
// error messages — including across quoted fields containing newlines
// and skipped blank lines, where the seed's record-based counting was
// off.
func TestIngestCSVLineNumbers(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{
			"bad weight, simple",
			"id,A,w\n1,x,zero\n",
			`table: CSV line 2: bad weight "zero"`,
		},
		{
			"bad id, simple",
			"id,A,w\n1,x,1\nnope,y,1\n",
			`table: CSV line 3: bad id "nope"`,
		},
		{
			"bad weight after multi-line quoted record",
			"id,A,w\n1,\"x\ny\",1\n2,b,zero\n",
			`table: CSV line 4: bad weight "zero"`,
		},
		{
			"bad id after blank lines",
			"id,A,w\n\n\n1,a,1\nx,b,1\n",
			`table: CSV line 5: bad id "x"`,
		},
		{
			// The bad field physically sits on line 4 even though its
			// record starts on line 2: the message points at the field.
			"bad id inside multi-line record",
			"A,id,w\n\"x\nyy\nzz\",nope,1\n",
			`table: CSV line 4: bad id "nope"`,
		},
		{
			"field count, after blank line",
			"A,B\n\nx\n",
			"table: reading CSV line 3: ",
		},
		{
			"bare quote",
			"A,B\nx,y\nbad\"q,z\n",
			"table: reading CSV line 3: ",
		},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(tc.in), "R")
		if err == nil {
			t.Errorf("%s: ReadCSV(%q) should fail", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}

	// The streaming scanner reuses encoding/csv's sentinel errors, so
	// errors.Is keeps working across both paths.
	if _, err := ReadCSV(strings.NewReader("A,B\nx\n"), "R"); !errors.Is(err, csv.ErrFieldCount) {
		t.Errorf("field-count error not errors.Is(csv.ErrFieldCount): %v", err)
	}
	if _, err := ReadCSV(strings.NewReader("A\n\"open\n"), "R"); !errors.Is(err, csv.ErrQuote) {
		t.Errorf("unterminated quote not errors.Is(csv.ErrQuote): %v", err)
	}
	if _, err := ReadCSV(strings.NewReader("A\nx\"y\n"), "R"); !errors.Is(err, csv.ErrBareQuote) {
		t.Errorf("bare quote not errors.Is(csv.ErrBareQuote): %v", err)
	}
}

// chunkEdgeCSV renders an n-row CSV with id and w columns and three
// attributes of different cardinalities. Identifiers ascend in steps of
// two from 2; when ooo > 0, row ooo instead carries the identifier
// oooID, which arrives after the rows before it have been sealed into
// chunks.
func chunkEdgeCSV(n, ooo, oooID int) string {
	var sb strings.Builder
	sb.WriteString("id,A,B,C,w\n")
	for i := 0; i < n; i++ {
		id := 2 * (i + 1)
		if ooo > 0 && i == ooo {
			id = oooID
		}
		fmt.Fprintf(&sb, "%d,a%d,b%d,c%d,%d\n", id, i%13, i/7, i%1000, 1+i%3)
	}
	return sb.String()
}

// TestIngestChunkEdges pins IngestCSV against ReadCSVBuffered at the
// edges of the chunk schedule: chunks of 256, 512, 1024, ... rows, so
// rows 257 and 769 open the second and third chunks and row 65,281
// opens the first full-size one. A table that fits in the first chunk
// keeps it as its row store; a larger one is copied into exact-size
// storage. An out-of-order identifier after several sealed chunks makes
// the duplicate check walk all of them.
func TestIngestChunkEdges(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 767, 768, 769, 65280, 65281} {
		in := chunkEdgeCSV(n, 0, 0)
		want, err := ReadCSVBuffered(strings.NewReader(in), "R")
		if err != nil {
			t.Fatal(err)
		}
		got, err := IngestCSV(strings.NewReader(in), "R")
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ingestTablesEqual(t, got, want, fmt.Sprintf("chunk edge n=%d", n))
		wantCap := n
		if n <= firstChunkRows {
			wantCap = firstChunkRows
		}
		if c := cap(got.rows); c != wantCap {
			t.Errorf("n=%d: row store capacity %d, want %d", n, c, wantCap)
		}
	}

	// Rows 0..1791 fill the 256-, 512- and 1024-row chunks; row 2000
	// sits in the fourth. Identifier 3 is unused and below the
	// watermark; identifier 4 is row 1's, in the first sealed chunk.
	for _, tc := range []struct {
		oooID   int
		wantErr string
	}{
		{3, ""},
		{4, "duplicate tuple identifier 4"},
	} {
		in := chunkEdgeCSV(3000, 2000, tc.oooID)
		want, werr := ReadCSVBuffered(strings.NewReader(in), "R")
		got, gerr := IngestCSV(strings.NewReader(in), "R")
		if tc.wantErr != "" {
			if werr == nil || gerr == nil || gerr.Error() != werr.Error() || !strings.Contains(gerr.Error(), tc.wantErr) {
				t.Fatalf("id %d at row 2000: buffered=%v ingest=%v, want %q from both", tc.oooID, werr, gerr, tc.wantErr)
			}
			continue
		}
		if werr != nil || gerr != nil {
			t.Fatalf("id %d at row 2000: buffered=%v ingest=%v", tc.oooID, werr, gerr)
		}
		ingestTablesEqual(t, got, want, fmt.Sprintf("id %d at row 2000", tc.oooID))
	}
}

// TestIngestAllocBound guards IngestCSV's fixed cost: a small CSV must
// allocate in proportion to its rows, not a full-size chunk's worth of
// row, tuple and column storage (~6.5 MB for three attributes).
func TestIngestAllocBound(t *testing.T) {
	for _, tc := range []struct {
		rows  int
		bound int64
	}{
		{100, 512 << 10},
		{6400, 4 << 20},
	} {
		in := chunkEdgeCSV(tc.rows, 0, 0)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := IngestCSV(strings.NewReader(in), "R"); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got >= tc.bound {
			t.Errorf("IngestCSV of %d rows allocates %d B/op, want under %d", tc.rows, got, tc.bound)
		}
	}
}

// TestIngestOutOfOrderIDs pins the duplicate check's cost to the rows
// that need it. One early identifier below the watermark (row 1 carries
// id 1 after row 0's id 2) must not send every later row's id into the
// duplicate set: ingest bytes stay within 5% of the in-order input's. A
// later repeat of an in-order id, past the ramp, must still fail with
// the seed reader's error.
func TestIngestOutOfOrderIDs(t *testing.T) {
	const n = chunkRows
	bytesOf := func(in string) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := IngestCSV(strings.NewReader(in), "R"); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	inOrder, early := bytesOf(chunkEdgeCSV(n, 0, 0)), bytesOf(chunkEdgeCSV(n, 1, 1))
	t.Logf("%d rows: %d B/op in order, %d B/op with id 1 at row 1", n, inOrder, early)
	if float64(early) > 1.05*float64(inOrder) {
		t.Errorf("an early out-of-order id costs %d B/op against %d in order, want at most 1.05×", early, inOrder)
	}

	dup := 2 * (rampRows + 1000 + 1) // row rampRows+1000's id
	in := chunkEdgeCSV(rampRows+3000, 1, 1) + fmt.Sprintf("%d,x,y,z,1\n", dup)
	_, werr := ReadCSVBuffered(strings.NewReader(in), "R")
	if werr == nil || !strings.Contains(werr.Error(), fmt.Sprintf("duplicate tuple identifier %d", dup)) {
		t.Fatalf("the seed reader returned %v, want the duplicate of %d", werr, dup)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, gerr := IngestCSV(strings.NewReader(in), "R")
		runtime.GOMAXPROCS(prev)
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("GOMAXPROCS %d: ingest=%v, buffered=%v", procs, gerr, werr)
		}
	}
}

// TestChunkedBuilderBoundaries drives the builder across chunk
// boundaries and through the duplicate-id fallback.
func TestChunkedBuilderBoundaries(t *testing.T) {
	sc := schema.MustNew("R", "A", "B")
	b := NewChunkedBuilder(sc)
	n := chunkRows*2 + 137
	for i := 0; i < n; i++ {
		cells := [][]byte{[]byte(fmt.Sprintf("a%d", i%97)), []byte(fmt.Sprintf("b%d", i%31))}
		if err := b.AppendAuto(cells, 1); err != nil {
			t.Fatal(err)
		}
	}
	tab := b.Flush()
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i, r := range tab.Rows() {
		if r.ID != i+1 {
			t.Fatalf("row %d has id %d", i, r.ID)
		}
		if want := fmt.Sprintf("a%d", i%97); r.Tuple[0] != want {
			t.Fatalf("row %d A = %q, want %q", i, r.Tuple[0], want)
		}
	}
	codes, groups := tab.ProjectionCodes(schema.Singleton(0))
	if groups != 97 || len(codes) != n {
		t.Fatalf("A projection: %d groups, %d codes", groups, len(codes))
	}

	// Out-of-order ids trip the map fallback; duplicates are rejected
	// with Insert's message.
	b2 := NewChunkedBuilder(sc)
	for _, id := range []int{10, 20, 5, 7, 30} {
		if err := b2.Append(id, [][]byte{[]byte("x"), []byte("y")}, 1); err != nil {
			t.Fatal(err)
		}
	}
	err := b2.Append(20, [][]byte{[]byte("x"), []byte("y")}, 1)
	if err == nil || !strings.Contains(err.Error(), "duplicate tuple identifier 20") {
		t.Fatalf("duplicate not rejected: %v", err)
	}
	tab2 := b2.Flush()
	if tab2.nextID != 31 {
		t.Fatalf("nextID = %d, want 31", tab2.nextID)
	}
}

// batchEdgeCSV renders n rows over arity attributes with id and w
// columns. Column values keep appearing for the first time in every
// batch, so code order across batch boundaries is checked. Rows within
// two of a batch boundary past the ramp carry quoted cells with
// embedded commas and newlines; when ooo > 0, row ooo carries the
// unused identifier 3, below the watermark.
func batchEdgeCSV(n, arity, ooo int) string {
	var sb strings.Builder
	sb.WriteString("id")
	for a := 0; a < arity; a++ {
		fmt.Fprintf(&sb, ",A%d", a)
	}
	sb.WriteString(",w\n")
	for i := 0; i < n; i++ {
		id := 2 * (i + 1)
		if ooo > 0 && i == ooo {
			id = 3
		}
		fmt.Fprintf(&sb, "%d", id)
		edge := i >= rampRows-2 && (i-rampRows+2)%batchRows < 4
		for a := 0; a < arity; a++ {
			v := []int{i / 3, i % 13, (i * 7919) % 50021}[a%3]
			if edge && a%3 != 1 {
				fmt.Fprintf(&sb, ",\"q%d,%d\n%d\"", v, a, i%2)
			} else {
				fmt.Fprintf(&sb, ",%d:%d", a, v)
			}
		}
		fmt.Fprintf(&sb, ",%d\n", 1+i%3)
	}
	return sb.String()
}

// TestIngestBatchesMatchBuffered pins IngestCSV against the seed reader
// on both sides of the ramp and several batches past it, where batches
// are interned on one goroutine per column when GOMAXPROCS > 1 (or
// maxInternGoroutines striped goroutines, for a wider table): rows, the
// watermark and every singleton and full-set code must agree, at
// GOMAXPROCS 1 and 4, with quoted multi-line cells around every batch
// boundary and an out-of-order identifier after the ramp.
func TestIngestBatchesMatchBuffered(t *testing.T) {
	const big = 140000
	for _, tc := range []struct{ arity, n, ooo int }{
		{1, rampRows, 0},
		{1, rampRows + 1, 0},
		{1, big, rampRows + 3*batchRows + 5},
		{3, rampRows, 0},
		{3, rampRows + 1, 0},
		{3, big, rampRows + 3*batchRows + 5},
		{maxInternGoroutines + 4, rampRows + 2*batchRows + 7, 0},
	} {
		in := batchEdgeCSV(tc.n, tc.arity, tc.ooo)
		want, err := ReadCSVBuffered(strings.NewReader(in), "R")
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := IngestCSV(strings.NewReader(in), "R")
			runtime.GOMAXPROCS(prev)
			name := fmt.Sprintf("arity %d, %d rows, out-of-order row %d, GOMAXPROCS %d", tc.arity, tc.n, tc.ooo, procs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ingestTablesEqual(t, got, want, name)
		}
	}
}

// TestIngestBatchErrors places each kind of bad row after the first
// full-size batch has been handed to its goroutines: IngestCSV must
// return the seed reader's error string (the inputs have no blank lines
// or multi-line fields, so both count lines alike) and leave no
// goroutine behind, at GOMAXPROCS 1 and 4.
func TestIngestBatchErrors(t *testing.T) {
	at := rampRows + batchRows + 100
	prefix := chunkEdgeCSV(at, 0, 0)
	id := 2 * (at + 1)
	for _, tc := range []struct{ name, row string }{
		{"bad weight", fmt.Sprintf("%d,x,y,z,zero", id)},
		{"NaN weight", fmt.Sprintf("%d,x,y,z,NaN", id)},
		{"bad id", "nope,x,y,z,1"},
		{"duplicate id", "2,x,y,z,1"},
		{"reserved value", fmt.Sprintf("%d,x,\x00q,z,1", id)},
		{"field count", fmt.Sprintf("%d,x,y", id)},
		{"bare quote", fmt.Sprintf("%d,x\"q,y,z,1", id)},
	} {
		in := prefix + tc.row + "\n" + chunkEdgeCSV(10, 0, 0)[len("id,A,B,C,w\n"):]
		_, werr := ReadCSVBuffered(strings.NewReader(in), "R")
		if werr == nil {
			t.Fatalf("%s: the seed reader accepted the input", tc.name)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			base := runtime.NumGoroutine()
			_, gerr := IngestCSV(strings.NewReader(in), "R")
			runtime.GOMAXPROCS(prev)
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Errorf("%s, GOMAXPROCS %d: ingest=%v, buffered=%v", tc.name, procs, gerr, werr)
			}
			// A goroutine that has called Done may take a moment to
			// exit; one that outlives the call for good fails here.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s, GOMAXPROCS %d: %d goroutines before IngestCSV, %d after", tc.name, procs, base, n)
			}
		}
	}
}

// FuzzChunkedBuilder is the differential fuzz target for the streaming
// ingestion path: on arbitrary input, IngestCSV must agree with the
// seed ReadCSVBuffered — same accept/reject outcome, identical tables
// on accept — and never panic.
func FuzzChunkedBuilder(f *testing.F) {
	f.Add("A,B\nx,y\n")
	f.Add("id,A,w\n1,x,2\n")
	f.Add("w,id,A\n2,1,x\n")
	f.Add("A,B\n\"a,b\",\"c\nd\"\n")
	f.Add("A\n\"say \"\"hi\"\"\"\n")
	f.Add("A,B\r\nx,y\r\n")
	f.Add("id,A\n3,x\n1,y\n3,z\n")
	f.Add("A\n\n\nx\n\n")
	f.Add("A,B\nx\n")
	f.Add("A\n\"open\n")
	f.Add("id,w\n1,2\n")
	f.Add("id,A,w\n1,x,NaN\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		want, werr := ReadCSVBuffered(strings.NewReader(in), "F")
		got, gerr := IngestCSV(strings.NewReader(in), "F")
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("outcome mismatch: buffered=%v ingest=%v\ninput: %q", werr, gerr, in)
		}
		if werr != nil {
			return
		}
		ingestTablesEqual(t, got, want, in)
	})
}
