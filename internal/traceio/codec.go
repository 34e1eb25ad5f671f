package traceio

import (
	"bufio"
	"encoding/json"
	"strconv"

	"transientbd/internal/trace"
)

// maxLineBytes caps one input line, terminator included, so input with no
// newlines cannot make the reader buffer without limit.
const maxLineBytes = 1 << 20

// scanner walks one canonical JSON object: `{"key":value,...}`, only spaces
// and tabs between tokens, each key at most once, strings of printable ASCII
// without escapes, integers that fit int64. Anything else sets bad, which is
// sticky; what the scanner returned up to then is garbage.
type scanner struct {
	b    []byte
	i    int
	seen uint // one bit per key already taken
	bad  bool
}

// plain marks the bytes a canonical string holds as they are: printable
// ASCII other than '"' and '\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// peek skips blanks and returns the byte after them, 0 at end of line.
func (s *scanner) peek() byte {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if s.i = i; i == len(b) {
		return 0
	}
	return b[i]
}

// eat consumes c after any blanks.
func (s *scanner) eat(c byte) {
	if s.peek() == c {
		s.i++
	} else {
		s.bad = true
	}
}

// quoted consumes a string's plain bytes and its closing quote, the
// opening one already eaten, and returns the bytes, which alias the line.
func (s *scanner) quoted() []byte {
	b, start, i := s.b, s.i, s.i
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i == len(b) || b[i] != '"' {
		s.bad = true
		return nil
	}
	s.i = i + 1
	return b[start:i]
}

// key returns the next member's key with the scanner at its value, or
// nil once the object has closed at end of line or the line is bad.
func (s *scanner) key() []byte {
	switch c := s.peek(); {
	case s.i == 0 && c == '{', s.seen != 0 && c == ',':
		s.i++
	case s.seen != 0 && c == '}' && s.i+1 == len(s.b):
		return nil
	default:
		s.bad = true
		return nil
	}
	s.eat('"')
	key := s.quoted()
	if s.i < len(s.b) && s.b[s.i] == ':' { // the writers' `"key":`
		s.i++
	} else {
		s.eat(':')
	}
	return key
}

// take marks the key owning bit as seen; a second sighting is bad.
func (s *scanner) take(bit uint) {
	s.bad = s.bad || s.seen&bit != 0
	s.seen |= bit
}

// str consumes the string value of the key owning bit and returns its
// contents, which alias the line.
func (s *scanner) str(bit uint) []byte {
	s.take(bit)
	s.eat('"')
	return s.quoted()
}

// int consumes the integer value of the key owning bit: optional '-', no
// leading zeros, no overflow. "1.0" and "1e3" fail at the next key call.
func (s *scanner) int(bit uint) int64 {
	s.take(bit)
	neg := s.peek() == '-'
	if neg {
		s.i++
	}
	b, start, i, n := s.b, s.i, s.i, uint64(0)
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(b[i]-'0') // exact for up to 19 digits
	}
	if s.i = i; i == start || (b[start] == '0' && i > start+1) {
		s.bad = true
	} else if digits := i - start; digits > 18 { // 18 digits always fit int64
		limit := uint64(1<<63 - 1)
		if neg {
			limit++
		}
		s.bad = s.bad || digits > 19 || n > limit
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// fastVisit decodes a canonical visit line; ok is false for any other line.
func fastVisit(line []byte, names trace.Names) (rec visitRecord, ok bool) {
	s := scanner{b: line} // one scanner for the line, not a copy per key
	for {
		switch key := s.key(); string(key) {
		case "server":
			rec.Server = names.Intern(s.str(1 << 0))
		case "class":
			rec.Class = names.Intern(s.str(1 << 1))
		case "txn":
			rec.TxnID = s.int(1 << 2)
		case "hop":
			rec.HopID = s.int(1 << 3)
		case "arrive_us":
			rec.ArriveUS = s.int(1 << 4)
		case "depart_us":
			rec.DepartUS = s.int(1 << 5)
		case "downstream_us":
			rec.DownstrUS = s.int(1 << 6)
		default: // the end of the object, or a key outside the schema
			return rec, key == nil && !s.bad
		}
	}
}

// fastMessage is fastVisit for the wire-message schema.
func fastMessage(line []byte, names trace.Names) (rec messageRecord, ok bool) {
	s := scanner{b: line}
	for {
		switch key := s.key(); string(key) {
		case "at_us":
			rec.AtUS = s.int(1 << 0)
		case "from":
			rec.From = names.Intern(s.str(1 << 1))
		case "to":
			rec.To = names.Intern(s.str(1 << 2))
		case "dir":
			rec.Dir = names.Intern(s.str(1 << 3))
		case "class":
			rec.Class = names.Intern(s.str(1 << 4))
		case "conn":
			rec.Conn = s.int(1 << 5)
		case "txn":
			rec.TxnID = s.int(1 << 6)
		case "hop":
			rec.HopID = s.int(1 << 7)
		case "parent":
			rec.ParentHop = s.int(1 << 8)
		case "bytes":
			rec.Bytes = s.int(1 << 9)
		default: // the end of the object, or a key outside the schema
			return rec, key == nil && !s.bad
		}
	}
}

// lineReader yields lines aliasing br's buffer; it copies only longer ones.
type lineReader struct {
	br   *bufio.Reader
	long []byte
}

// next returns the next line, valid until the following call. A result
// longer than maxLineBytes is the head of a line whose rest was dropped.
func (lr *lineReader) next() ([]byte, error) {
	data, err := lr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return data, err
	}
	lr.long = append(lr.long[:0], data...)
	for err == bufio.ErrBufferFull {
		if data, err = lr.br.ReadSlice('\n'); len(lr.long) <= maxLineBytes {
			lr.long = append(lr.long, data...)
		}
	}
	return lr.long, err
}

// appendStr appends key and s quoted as json.Encoder would: verbatim when s
// is plain ASCII, through json.Marshal when it needs escaping (<>& too).
func appendStr(b []byte, key, s string) []byte {
	b = append(b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendInt appends key and n, or nothing for a zero under omitempty.
func appendInt(b []byte, key string, n int64, omitempty bool) []byte {
	if n == 0 && omitempty {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}
