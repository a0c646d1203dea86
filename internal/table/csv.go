package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/schema"
)

// ReadCSV reads a table from CSV. The header row names the attributes;
// the optional columns "id" (integer identifier) and "w" (positive
// float weight) may appear anywhere and are stripped from the schema.
// Missing ids are assigned sequentially; missing weights default to 1.
//
// ReadCSV streams: it is IngestCSV, kept under its original name. The
// input is encoded chunk-by-chunk straight into dictionary codes, so
// peak memory is O(chunk + dictionary + encoded table), not O(raw
// strings) — see IngestCSV.
func ReadCSV(r io.Reader, relationName string) (*Table, error) {
	return IngestCSV(r, relationName)
}

// IngestCSV reads a table from CSV by streaming it through a
// ChunkedBuilder: each row is validated as it is scanned and its cells
// are copied into a batch, and each batch is interned column by column
// into the per-attribute dictionaries (one string allocation per
// distinct value, a map lookup per repeated one); column codes
// accumulate in chunks that grow from firstChunkRows to chunkRows rows,
// and the finished table is published with its dictionary encoding
// already built. Past the first rampRows (65,280) rows, with
// GOMAXPROCS > 1, each column of a batch is interned on its own
// goroutine while the next batch is scanned; IngestCSV returns only
// after every goroutine it started has finished, on success and on
// error. The output is identical to the buffered seed path
// (ReadCSVBuffered) on every input, error cases included; only the
// allocation profile differs.
//
// Line numbers in errors are physical 1-based input lines (the header
// is line 1), correct even across quoted fields containing newlines
// and skipped blank lines.
func IngestCSV(r io.Reader, relationName string) (*Table, error) {
	s := newCSVScanner(r)
	if !s.Scan() {
		err := s.err
		if err == nil {
			// Cannot happen: Scan only returns false with s.err set.
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	idCol, wCol := -1, -1
	var attrs []string
	var attrCols []int
	for i := 0; i < s.NumFields(); i++ {
		switch h := string(s.Field(i)); h {
		case "id":
			idCol = i
		case "w":
			wCol = i
		default:
			attrs = append(attrs, h)
			attrCols = append(attrCols, i)
		}
	}
	sc, err := schema.New(relationName, attrs...)
	if err != nil {
		return nil, err
	}
	b := NewChunkedBuilder(sc)
	defer b.wg.Wait() // an error return may leave a batch in flight
	cells := make([][]byte, len(attrCols))
	for s.Scan() {
		for i, c := range attrCols {
			cells[i] = s.Field(c)
		}
		w := 1.0
		if wCol >= 0 {
			wb := s.Field(wCol)
			if len(wb) == 1 && wb[0] == '1' {
				w = 1.0
			} else if w, err = strconv.ParseFloat(string(wb), 64); err != nil {
				return nil, fmt.Errorf("table: CSV line %d: bad weight %q", s.FieldLine(wCol), wb)
			}
		}
		if idCol >= 0 {
			id, ok := parseID(s.Field(idCol))
			if !ok {
				return nil, fmt.Errorf("table: CSV line %d: bad id %q", s.FieldLine(idCol), s.Field(idCol))
			}
			if err := b.Append(id, cells, w); err != nil {
				return nil, err
			}
		} else if err := b.AppendAuto(cells, w); err != nil {
			return nil, err
		}
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("table: reading CSV line %d: %w", errLine(err, s), err)
	}
	return b.Flush(), nil
}

// errLine extracts the physical line a scan error occurred on: parse
// errors carry it, anything else (I/O) happened on the line being
// read.
func errLine(err error, s *csvScanner) int {
	if pe, ok := err.(*csv.ParseError); ok {
		return pe.Line
	}
	return s.numLine
}

// parseID parses a tuple identifier from raw bytes without allocating:
// an optional sign followed by 1–18 digits (always within int64 range)
// is handled inline; anything longer or stranger falls back to
// strconv.Atoi semantics via a string copy.
func parseID(b []byte) (int, bool) {
	d := b
	neg := false
	if len(d) > 0 && (d[0] == '-' || d[0] == '+') {
		neg = d[0] == '-'
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return parseIDSlow(b)
	}
	v := 0
	for _, c := range d {
		if c < '0' || c > '9' {
			return parseIDSlow(b)
		}
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

func parseIDSlow(b []byte) (int, bool) {
	id, err := strconv.Atoi(string(b))
	return id, err == nil
}

// ReadCSVBuffered is the seed (pre-streaming) CSV reader, retained
// verbatim as the differential oracle for IngestCSV and as the
// allocation baseline in paperbench: it materializes one freshly
// allocated string per cell via encoding/csv and inserts row by row.
// Its error line numbers keep the seed's record-based counting (off by
// the number of blank lines and embedded newlines skipped so far);
// ReadCSV/IngestCSV report exact physical lines.
func ReadCSVBuffered(r io.Reader, relationName string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	idCol, wCol := -1, -1
	var attrs []string
	var attrCols []int
	for i, h := range header {
		switch h {
		case "id":
			idCol = i
		case "w":
			wCol = i
		default:
			attrs = append(attrs, h)
			attrCols = append(attrCols, i)
		}
	}
	sc, err := schema.New(relationName, attrs...)
	if err != nil {
		return nil, err
	}
	t := New(sc)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV line %d: %w", line+1, err)
		}
		line++
		tup := make(Tuple, len(attrCols))
		for i, c := range attrCols {
			tup[i] = rec[c]
		}
		w := 1.0
		if wCol >= 0 {
			w, err = strconv.ParseFloat(rec[wCol], 64)
			if err != nil {
				return nil, fmt.Errorf("table: CSV line %d: bad weight %q", line, rec[wCol])
			}
		}
		if idCol >= 0 {
			id, err := strconv.Atoi(rec[idCol])
			if err != nil {
				return nil, fmt.Errorf("table: CSV line %d: bad id %q", line, rec[idCol])
			}
			if err := t.Insert(id, tup, w); err != nil {
				return nil, err
			}
		} else if _, err := t.Append(tup, w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteCSV writes the table with an "id" column first and a "w" column
// last, so that ReadCSV round-trips it.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"id"}, t.sc.Attrs()...)
	header = append(header, "w")
	if err := cw.Write(header); err != nil {
		return err
	}
	// csv.Writer.Write does not retain the record, so one serves every
	// row.
	rec := make([]string, len(header))
	for _, r := range t.rows {
		rec[0] = strconv.Itoa(r.ID)
		copy(rec[1:], r.Tuple)
		rec[len(rec)-1] = strconv.FormatFloat(r.Weight, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
