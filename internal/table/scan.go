package table

// csvScanner is a streaming CSV record scanner with the exact parsing
// semantics of encoding/csv (Go 1.24) configured the way ReadCSV has
// always configured it: Comma=',', TrimLeadingSpace=true, no comments,
// LazyQuotes=false. The one difference is the output contract: fields
// are returned as []byte slices into an internal buffer that is valid
// only until the next Scan call, instead of freshly allocated strings.
// That is what lets IngestCSV intern each cell with a map lookup
// (dict[string(bytes)] compiles without allocation) and allocate a
// string only on a dictionary miss — the whole point of the chunked
// ingestion path.
//
// Errors are reported with encoding/csv's own types (*csv.ParseError
// wrapping csv.ErrQuote / csv.ErrBareQuote / csv.ErrFieldCount), so
// errors.Is works identically across the buffered and streaming paths,
// and line/column numbers count physical input lines exactly as the
// stdlib's do.
//
// The port is deliberately line-for-line close to encoding/csv's
// readRecord/readLine; when in doubt about a behavior (blank-line
// skipping, \r\n normalization, trailing-\r-before-EOF, the
// TrimLeadingSpace interaction with all-space remainders), match the
// stdlib, which the differential tests enforce against real
// csv.Reader output.

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"unicode"
)

type csvScanner struct {
	r *bufio.Reader

	// numLine is the current physical line in the input (1-based after
	// the first readLine).
	numLine int

	// fieldsPerRecord mirrors csv.Reader.FieldsPerRecord in its 0 form:
	// inferred from the first record, then enforced.
	fieldsPerRecord int

	// rawBuffer accumulates lines longer than the bufio buffer.
	rawBuffer []byte

	// recordBuffer holds the unescaped fields of the current record,
	// one after another; fieldIndexes[i] is the end offset of field i.
	recordBuffer []byte
	fieldIndexes []int

	// fieldLines[i] is the physical line the i'th field starts on —
	// what the ingestion error messages report for a bad id/weight.
	fieldLines []int

	err error
}

func newCSVScanner(r io.Reader) *csvScanner {
	return &csvScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

// readLine reads the next physical line including its trailing newline
// (omitted at EOF), normalizing \r\n to \n and dropping a trailing \r
// before EOF, exactly like encoding/csv. The result is only valid
// until the next call.
func (s *csvScanner) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.rawBuffer = append(s.rawBuffer[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.r.ReadSlice('\n')
			s.rawBuffer = append(s.rawBuffer, line...)
		}
		line = s.rawBuffer
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		// For backwards compatibility, drop trailing \r before EOF.
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	s.numLine++
	// Normalize \r\n to \n on all input lines.
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// Scan reads the next record. It returns false at EOF or on error;
// Err distinguishes the two. After a true return, the record's fields
// are available via NumFields/Field/FieldLine until the next call.
func (s *csvScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	err := s.readRecord()
	if err != nil {
		s.err = err
		return false
	}
	return true
}

// Err returns the terminal error, or nil after a clean EOF.
func (s *csvScanner) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// NumFields returns the field count of the current record.
func (s *csvScanner) NumFields() int { return len(s.fieldIndexes) }

// Field returns the i'th field of the current record as a byte slice
// into the scanner's buffer — valid only until the next Scan.
func (s *csvScanner) Field(i int) []byte {
	start := 0
	if i > 0 {
		start = s.fieldIndexes[i-1]
	}
	return s.recordBuffer[start:s.fieldIndexes[i]]
}

// FieldLine returns the physical 1-based input line the i'th field of
// the current record starts on.
func (s *csvScanner) FieldLine(i int) int { return s.fieldLines[i] }

func (s *csvScanner) readRecord() error {
	// Read line, automatically skipping past empty lines.
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = s.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			line = nil
			continue // Skip empty lines
		}
		break
	}
	if errRead == io.EOF {
		return errRead
	}

	// Parse each field in the record.
	var err error
	const quoteLen = len(`"`)
	const commaLen = len(`,`)
	recLine := s.numLine // Starting line for record
	s.recordBuffer = s.recordBuffer[:0]
	s.fieldIndexes = s.fieldIndexes[:0]
	s.fieldLines = s.fieldLines[:0]
	pos := struct{ line, col int }{line: s.numLine, col: 1}
parseField:
	for {
		// TrimLeadingSpace, as ReadCSV has always set it.
		i := bytes.IndexFunc(line, func(r rune) bool {
			return !unicode.IsSpace(r)
		})
		if i < 0 {
			i = len(line)
			pos.col -= lengthNL(line)
		}
		line = line[i:]
		pos.col += i
		if len(line) == 0 || line[0] != '"' {
			// Non-quoted string field
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			// Check to make sure a quote does not appear in field.
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				col := pos.col + j
				err = &csv.ParseError{StartLine: recLine, Line: s.numLine, Column: col, Err: csv.ErrBareQuote}
				break parseField
			}
			s.recordBuffer = append(s.recordBuffer, field...)
			s.fieldIndexes = append(s.fieldIndexes, len(s.recordBuffer))
			s.fieldLines = append(s.fieldLines, pos.line)
			if i >= 0 {
				line = line[i+commaLen:]
				pos.col += i + commaLen
				continue parseField
			}
			break parseField
		} else {
			// Quoted string field
			fieldLine := pos.line
			line = line[quoteLen:]
			pos.col += quoteLen
			for {
				i := bytes.IndexByte(line, '"')
				if i >= 0 {
					// Hit next quote.
					s.recordBuffer = append(s.recordBuffer, line[:i]...)
					line = line[i+quoteLen:]
					pos.col += i + quoteLen
					switch {
					case len(line) > 0 && line[0] == '"':
						// `""` sequence (append quote).
						s.recordBuffer = append(s.recordBuffer, '"')
						line = line[quoteLen:]
						pos.col += quoteLen
					case len(line) > 0 && line[0] == ',':
						// `",` sequence (end of field).
						line = line[commaLen:]
						pos.col += commaLen
						s.fieldIndexes = append(s.fieldIndexes, len(s.recordBuffer))
						s.fieldLines = append(s.fieldLines, fieldLine)
						continue parseField
					case lengthNL(line) == len(line):
						// `"\n` sequence (end of line).
						s.fieldIndexes = append(s.fieldIndexes, len(s.recordBuffer))
						s.fieldLines = append(s.fieldLines, fieldLine)
						break parseField
					default:
						// `"*` sequence (invalid non-escaped quote).
						err = &csv.ParseError{StartLine: recLine, Line: s.numLine, Column: pos.col - quoteLen, Err: csv.ErrQuote}
						break parseField
					}
				} else if len(line) > 0 {
					// Hit end of line (copy all data so far).
					s.recordBuffer = append(s.recordBuffer, line...)
					if errRead != nil {
						break parseField
					}
					pos.col += len(line)
					line, errRead = s.readLine()
					if len(line) > 0 {
						pos.line++
						pos.col = 1
					}
					if errRead == io.EOF {
						errRead = nil
					}
				} else {
					// Abrupt end of file (EOF or error).
					if errRead == nil {
						err = &csv.ParseError{StartLine: recLine, Line: pos.line, Column: pos.col, Err: csv.ErrQuote}
						break parseField
					}
					s.fieldIndexes = append(s.fieldIndexes, len(s.recordBuffer))
					s.fieldLines = append(s.fieldLines, fieldLine)
					break parseField
				}
			}
		}
	}
	if err == nil {
		err = errRead
	}
	if err != nil {
		return err
	}

	// Check or update the expected fields per record.
	if s.fieldsPerRecord > 0 {
		if len(s.fieldIndexes) != s.fieldsPerRecord {
			return &csv.ParseError{
				StartLine: recLine,
				Line:      recLine,
				Column:    1,
				Err:       csv.ErrFieldCount,
			}
		}
	} else {
		s.fieldsPerRecord = len(s.fieldIndexes)
	}
	return nil
}
