package serve

// Hand-rolled JSON scanning and rendering for the two request shapes
// the service accepts. encoding/json is out of the question on the
// decide hot path: Unmarshal allocates for every string field and
// reflects over the destination, and even Decoder.Token allocates per
// token. The requests are tiny flat objects with known keys, so a
// field iterator over the raw bytes covers them with zero allocations,
// and responses are appended into the pooled scratch buffer.
//
// Accepted subset: one JSON object of string/number/bool/null fields,
// optionally surrounded by whitespace. Nested objects and arrays are
// rejected (no request shape uses them), escapes other than \" \\ \/
// are rejected (site/path names are plain identifiers in every
// deployment this serves), strings must be valid UTF-8 without control
// characters, and numbers follow the JSON grammar including exponents
// but must be finite. Every accepted body is valid JSON that
// encoding/json decodes to the same values (FuzzServeJSON).

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// jsonScan iterates the fields of a flat JSON object. The zero value
// is invalid; start with newJSONScan.
type jsonScan struct {
	b      []byte
	i      int
	fields int // keys scanned so far: every later key needs a comma
	err    bool
}

func newJSONScan(b []byte) jsonScan {
	s := jsonScan{b: b}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == '{' {
		s.i++
	} else {
		s.err = true
	}
	return s
}

// ws skips JSON whitespace.
func (s *jsonScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next advances to the next key, returning its bytes (unescaped in
// place — see str) and true, or false at the object's end or on a
// syntax error (check s.err). Only whitespace may follow the object.
//
//multinet:hotpath
func (s *jsonScan) next() ([]byte, bool) {
	s.ws()
	if s.err || s.i >= len(s.b) {
		s.err = true
		return nil, false
	}
	switch c := s.b[s.i]; {
	case c == '}':
		s.i++
		s.ws()
		s.err = s.i != len(s.b)
		return nil, false
	case s.fields > 0 && c == ',':
		s.i++
		s.ws()
	case s.fields > 0:
		s.err = true // fields must be comma-separated
		return nil, false
	}
	s.fields++
	key, ok := s.str()
	if !ok {
		return nil, false
	}
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != ':' {
		s.err = true
		return nil, false
	}
	s.i++
	s.ws()
	return key, true
}

// str parses the quoted string at the cursor, returning its contents.
// Escapes other than \" \\ \/ are rejected; those three are unescaped
// by shifting in place (the buffer is the request scratch, ours to
// mutate). Control characters and invalid UTF-8 are rejected.
//
//multinet:hotpath
func (s *jsonScan) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		s.err = true
		return nil, false
	}
	s.i++
	start := s.i
	w := s.i      // write cursor for in-place unescaping
	var high byte // OR of every byte: >= 0x80 means non-ASCII to validate
	for s.i < len(s.b) {
		c := s.b[s.i]
		high |= c
		switch {
		case c == '"':
			out := s.b[start:w]
			s.i++
			if high >= utf8.RuneSelf && !utf8.Valid(out) {
				s.err = true
				return nil, false
			}
			return out, true
		case c == '\\':
			s.i++
			if s.i >= len(s.b) {
				s.err = true
				return nil, false
			}
			switch s.b[s.i] {
			case '"', '\\', '/':
				s.b[w] = s.b[s.i]
			default:
				s.err = true // \n, \t, \uXXXX: not a path or site name
				return nil, false
			}
			w++
			s.i++
		case c < 0x20:
			s.err = true
			return nil, false
		default:
			s.b[w] = c
			w++
			s.i++
		}
	}
	s.err = true
	return nil, false
}

// skipValue consumes the value at the cursor (string, number, bool or
// null only — unknown keys with nested values reject the request).
//
//multinet:hotpath
func (s *jsonScan) skipValue() {
	if s.i >= len(s.b) {
		s.err = true
		return
	}
	switch c := s.b[s.i]; {
	case c == '"':
		s.str()
	case c == '-' || (c >= '0' && c <= '9'):
		s.num()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	default:
		s.err = true
	}
}

// literal consumes the keyword lit at the cursor.
func (s *jsonScan) literal(lit string) {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		s.err = true
		return
	}
	s.i += len(lit)
}

// num parses the JSON number at the cursor without allocating:
// strconv.ParseFloat(string(b), ...) would heap-copy the bytes
// because its error path retains the string, so the mantissa and
// exponent are accumulated by hand. Values that do not fit a finite
// float64 are rejected.
//
//multinet:hotpath
func (s *jsonScan) num() (float64, bool) {
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	start := s.i
	var mant float64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		mant = mant*10 + float64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start || (s.i-start > 1 && s.b[start] == '0') {
		s.err = true // no digits, or a leading zero
		return 0, false
	}
	scale := 0
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		fs := s.i
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			mant = mant*10 + float64(s.b[s.i]-'0')
			scale--
			s.i++
		}
		if s.i == fs {
			s.err = true
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		eneg := false
		switch {
		case s.i < len(s.b) && s.b[s.i] == '-':
			eneg = true
			s.i++
		case s.i < len(s.b) && s.b[s.i] == '+':
			s.i++
		}
		es := s.i
		exp := 0
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' && exp < 1000 {
			exp = exp*10 + int(s.b[s.i]-'0')
			s.i++
		}
		if s.i == es {
			s.err = true
			return 0, false
		}
		if eneg {
			exp = -exp
		}
		scale += exp
	}
	// Dividing (rather than multiplying by a reciprocal) keeps short
	// decimals exact: 125/10 is 12.5 on the nose, 125*0.1 is not.
	var v float64
	switch {
	case mant == 0:
	case scale < 0:
		v = mant / pow10(-scale)
	default:
		v = mant * pow10(scale)
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		s.err = true
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// pow10 returns 10^n (n >= 0) through repeated squaring on a float
// base — exact for the n <= 22 every real request uses, and
// monotonically saturating beyond the float range.
func pow10(n int) float64 {
	p, base := 1.0, 10.0
	for n > 0 {
		if n&1 == 1 {
			p *= base
		}
		base *= base
		n >>= 1
	}
	return p
}

// intNum parses the number at the cursor as a non-negative int
// (fractions and negatives reject — flow sizes are byte counts).
//
//multinet:hotpath
func (s *jsonScan) intNum() (int, bool) {
	start := s.i
	n := 0
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		d := int(s.b[s.i] - '0')
		if n > (1<<62)/10 {
			s.err = true
			return 0, false
		}
		n = n*10 + d
		s.i++
	}
	if s.i == start || (s.i-start > 1 && s.b[start] == '0') {
		s.err = true // no digits, or a leading zero
		return 0, false
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E', '-':
			s.err = true
			return 0, false
		}
	}
	return n, true
}

// keyIs compares a scanned key against a literal without conversion.
func keyIs(key []byte, lit string) bool {
	return string(key) == lit // compiler elides the conversion for ==
}

// appendJSONString appends s as a quoted JSON string, escaping the
// two characters (quote, backslash) that site and path identifiers
// could legally smuggle in; control characters are dropped rather
// than escaped (they cannot appear in accepted requests, which reject
// escape forms other than \" \\ \/).
//
//multinet:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendFloat appends v with enough precision for estimate ratios
// (three decimals) — AppendFloat writes into the provided buffer, so
// the pooled scratch absorbs it without allocation.
//
//multinet:hotpath
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', 3, 64)
}
