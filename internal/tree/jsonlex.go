package tree

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file implements Lexer, the single-pass JSON scanner behind the
// instance wire formats: Tree.UnmarshalJSON, core.Instance's decoder
// and the chunked stream reader all decode through it, so the bytes of
// an instance are scanned exactly once on the way to the node arena.
//
// The grammar it accepts is exactly encoding/json's for the decoded
// types (pinned by differential fuzz targets against encoding/json
// reference decoders):
//   - RFC 8259 syntax, with encoding/json's nesting limit of 10000;
//   - object keys match field names exactly or, failing that, under
//     encoding/json's case folding (ASCII case plus Unicode simple
//     folds, so "ſ" matches "s" and "K" (Kelvin) matches "k");
//   - unknown keys are skipped (their values must still be valid);
//   - a repeated key overwrites the earlier value, and null leaves a
//     scalar field unchanged;
//   - integer fields take only integral numbers in the field's range
//     (no fraction, no exponent);
//   - strings unescape like encoding/json, replacing invalid UTF-8 and
//     unpaired surrogates with U+FFFD.

// maxNestingDepth is encoding/json's limit on nested objects/arrays.
const maxNestingDepth = 10000

// Lexer scans one JSON document held in memory. The zero value is
// ready after Reset. Methods that read a value record the first error
// and turn into no-ops afterwards, so a decoder can run its loops
// unconditionally and check Finish once at the end.
type Lexer struct {
	data  []byte
	off   int
	depth int
	err   error
	buf   []byte // unescape scratch for keys and strings
}

// Reset points the lexer at data and clears any error.
func (l *Lexer) Reset(data []byte) {
	l.data, l.off, l.depth, l.err = data, 0, 0, nil
}

// Finish checks that only whitespace follows the decoded value and
// returns the first error of the whole decode.
func (l *Lexer) Finish() error {
	if l.err == nil {
		l.skipSpace()
		if l.off < len(l.data) {
			l.syntax("after top-level value")
		}
	}
	return l.err
}

// syntax records a syntax error at the current offset.
func (l *Lexer) syntax(context string) {
	if l.err != nil {
		return
	}
	if l.off >= len(l.data) {
		l.err = errors.New("json: unexpected end of JSON input")
		return
	}
	l.err = fmt.Errorf("json: invalid character %q %s (offset %d)", rune(l.data[l.off]), context, l.off)
}

// typeError records a value of the wrong JSON kind for a field.
func (l *Lexer) typeError(what, want string) {
	if l.err == nil {
		l.err = fmt.Errorf("json: cannot unmarshal %s into a value of type %s (offset %d)", what, want, l.off)
	}
}

func (l *Lexer) skipSpace() {
	for l.off < len(l.data) {
		switch l.data[l.off] {
		case ' ', '\t', '\n', '\r':
			l.off++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (l *Lexer) peek() byte {
	if l.off < len(l.data) {
		if c := l.data[l.off]; c > ' ' { // not whitespace: the compact-JSON fast path
			return c
		}
	}
	l.skipSpace()
	if l.off < len(l.data) {
		return l.data[l.off]
	}
	return 0
}

// Null consumes a null literal if one comes next. Anything else is
// left for the caller's read, which reports it.
func (l *Lexer) Null() bool {
	if l.err != nil || l.peek() != 'n' || len(l.data)-l.off < 4 || string(l.data[l.off:l.off+4]) != "null" {
		return false
	}
	l.off += 4
	return true
}

// literal consumes the literal lit or records a syntax error at its
// first wrong byte.
func (l *Lexer) literal(lit string) {
	if len(l.data)-l.off >= len(lit) && string(l.data[l.off:l.off+len(lit)]) == lit {
		l.off += len(lit)
		return
	}
	for i := 0; i < len(lit) && l.off < len(l.data) && l.data[l.off] == lit[i]; i++ {
		l.off++
	}
	l.syntax("in literal " + lit)
}

func (l *Lexer) push() bool {
	l.depth++
	if l.depth > maxNestingDepth {
		if l.err == nil {
			l.err = errors.New("json: exceeded max depth")
		}
		return false
	}
	return true
}

// End is the field index Object and More return at the end of an
// object, and on error.
const End = -2

// Object enters an object value and reads its first key. It returns
// the index in names of the field the key selects (-1 for an unknown
// key, whose value the caller must Skip), or End for an empty object,
// on error, or when the next value is not an object (a type error).
// After each member value, call More.
func (l *Lexer) Object(names []string) int {
	if l.err != nil {
		return End
	}
	if c := l.peek(); c != '{' {
		l.wrongKind("object")
		return End
	}
	l.off++
	if !l.push() {
		return End
	}
	if l.peek() == '}' {
		l.off++
		l.depth--
		return End
	}
	return l.key(names)
}

// More moves past the member value just read: it returns the field
// index of the next key as Object does, or End at the closing brace
// and on error.
func (l *Lexer) More(names []string) int {
	if l.err != nil {
		return End
	}
	switch l.peek() {
	case ',':
		l.off++
		l.skipSpace()
		return l.key(names)
	case '}':
		l.off++
		l.depth--
		return End
	}
	l.syntax("after object key:value pair")
	return End
}

// key reads an object key and its colon and returns the index of the
// field it selects among names (-1 for none), or End on error. A key
// spelled exactly like a name is recognised in place; any other key
// is unescaped and matched with field.
func (l *Lexer) key(names []string) int {
	if l.peek() != '"' {
		l.syntax("looking for beginning of object key string")
		return End
	}
	d, q := l.data, l.off+1
	f := -1
	for i, name := range names {
		// Names hold no quote or backslash, so a quote right after
		// the name's bytes closes a key equal to the name.
		if e := q + len(name); e < len(d) && d[e] == '"' && d[q] == name[0] && string(d[q:e]) == name {
			f, l.off = i, e+1
			break
		}
	}
	if f < 0 {
		k, ok := l.str()
		if !ok {
			return End
		}
		f = field(k, names)
	}
	if l.peek() != ':' {
		l.syntax("after object key")
		return End
	}
	l.off++
	return f
}

// array enters an array value. It returns true when an element
// follows, false for an empty array, on error, or when the next value
// is not an array; call moreItems after each element.
func (l *Lexer) array() bool {
	if l.err != nil {
		return false
	}
	if c := l.peek(); c != '[' {
		l.wrongKind("array")
		return false
	}
	l.off++
	if !l.push() {
		return false
	}
	if l.peek() == ']' {
		l.off++
		l.depth--
		return false
	}
	return true
}

// moreItems moves past the element just read: true when another
// element follows, false at the closing bracket or on error.
func (l *Lexer) moreItems() bool {
	if l.err != nil {
		return false
	}
	switch l.peek() {
	case ',':
		l.off++
		return true
	case ']':
		l.off++
		l.depth--
		return false
	}
	l.syntax("after array element")
	return false
}

// wrongKind records a type error for the value at the cursor, or the
// syntax error if that value is not valid JSON in the first place.
func (l *Lexer) wrongKind(want string) {
	start := l.off
	l.Skip()
	if l.err != nil {
		return
	}
	var what string
	switch c := l.data[start]; {
	case c == '"':
		what = "string"
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == 't' || c == 'f':
		what = "bool"
	case c == 'n':
		what = "null"
	default:
		what = "number " + string(l.data[start:l.off])
	}
	l.off = start
	l.typeError(what, want)
}

// ReadInt decodes an integer field of the given bit size into dst. A
// null leaves dst unchanged; a fraction, an exponent or a value out of
// range is a type error, as in encoding/json.
func (l *Lexer) ReadInt(dst *int64, bitSize int) {
	if l.err != nil {
		return
	}
	c := l.peek()
	if c == 'n' && l.Null() {
		return
	}
	if c != '-' && (c < '0' || c > '9') {
		l.wrongKind("int" + strconv.Itoa(bitSize))
		return
	}
	start := l.off
	if v, end, ok := parseInt(l.data, start, bitSize); ok {
		*dst, l.off = v, end
		return
	}
	// Not an integer in range: scan the number for a syntax error,
	// else report the type error.
	l.number()
	if l.err == nil {
		tok := string(l.data[start:l.off])
		l.off = start
		l.typeError("number "+tok, "int"+strconv.Itoa(bitSize))
	}
}

// readNodeID decodes a NodeID (int32) field.
func (l *Lexer) readNodeID(dst *NodeID) {
	v := int64(*dst)
	l.ReadInt(&v, 32)
	*dst = NodeID(v)
}

// parseInt parses the JSON integer token starting at d[i] (-?, then 0
// or a digit run without a leading zero) and returns its value and
// end offset. ok is false when no digit follows the sign, when the
// number goes on with a fraction or an exponent, or when the value
// does not fit bitSize bits.
func parseInt(d []byte, i, bitSize int) (v int64, end int, ok bool) {
	neg := d[i] == '-'
	if neg {
		i++
	}
	j := i
	var u uint64
	if j < len(d) && d[j] == '0' {
		j++
	} else {
		// 19 digits always fit a uint64; a 20th means out of range.
		for stop := min(len(d), i+19); j < stop && '0' <= d[j] && d[j] <= '9'; j++ {
			u = u*10 + uint64(d[j]-'0')
		}
	}
	if j == i {
		return 0, 0, false
	}
	if j < len(d) && (j-i == 19 && '0' <= d[j] && d[j] <= '9' || d[j] == '.' || d[j] == 'e' || d[j] == 'E') {
		return 0, 0, false
	}
	limit := uint64(1) << (bitSize - 1)
	if neg {
		if u > limit {
			return 0, 0, false
		}
		return -int64(u), j, true
	}
	if u >= limit {
		return 0, 0, false
	}
	return int64(u), j, true
}

// number scans a JSON number, recording a syntax error if the bytes
// at the cursor are not one.
func (l *Lexer) number() {
	d := l.data
	i := l.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		i = digits(d, i+1)
	default:
		l.off = i
		l.syntax("in numeric literal")
		return
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			l.off = i
			l.syntax("after decimal point in numeric literal")
			return
		}
		i = digits(d, i+1)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			l.off = i
			l.syntax("in exponent of numeric literal")
			return
		}
		i = digits(d, i+1)
	}
	l.off = i
}

// digits returns the end of the digit run starting at d[i].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// ReadString decodes a string field. It returns the unescaped bytes
// (valid until the next string or key is read) and ok=true, or
// ok=false for null (the field stays unchanged) and on error.
func (l *Lexer) ReadString() (s []byte, ok bool) {
	if l.err != nil || l.Null() {
		return nil, false
	}
	if l.peek() != '"' {
		l.wrongKind("string")
		return nil, false
	}
	return l.str()
}

// str reads the string starting at the cursor's quote. Plain strings
// (no escapes, valid UTF-8) are returned in place; others are
// unescaped into the scratch buffer.
func (l *Lexer) str() ([]byte, bool) {
	d := l.data
	start := l.off + 1
	for i := start; i < len(d); {
		c := d[i]
		switch {
		case plainASCII[c]:
			i++
		case c == '"':
			l.off = i + 1
			return d[start:i], true
		case c == '\\' || c < ' ':
			return l.unescape(start)
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return l.unescape(start)
			}
			i += size
		}
	}
	l.off = len(d)
	l.syntax("in string literal")
	return nil, false
}

// plainASCII marks the bytes a string holds verbatim: printable ASCII
// other than the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape decodes the string body starting at start into l.buf with
// encoding/json's rules, validating escapes as it goes.
func (l *Lexer) unescape(start int) ([]byte, bool) {
	d := l.data
	b := l.buf[:0]
	i := start
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			l.off = i + 1
			l.buf = b
			return b, true
		case c < ' ':
			l.off = i
			l.syntax("in string literal")
			return nil, false
		case c == '\\':
			if i+1 >= len(d) {
				l.off = len(d)
				l.syntax("in string escape code")
				return nil, false
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(d[i:])
				if rr < 0 {
					l.off = i
					l.syntax("in \\u hexadecimal character escape")
					return nil, false
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if rr1 := getu4(d[i:]); rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
							i += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				l.off = i + 1
				l.syntax("in string escape code")
				return nil, false
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r) // invalid bytes decode to U+FFFD
			i += size
		}
	}
	l.buf = b
	l.off = len(d)
	l.syntax("in string literal")
	return nil, false
}

// getu4 decodes \uXXXX from the beginning of s, returning -1 when s
// does not start with a well-formed escape.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Skip consumes one value of any kind, validating its syntax.
func (l *Lexer) Skip() {
	if l.err != nil {
		return
	}
	switch c := l.peek(); {
	case c == '{':
		for f := l.Object(nil); f != End; f = l.More(nil) {
			l.Skip()
		}
	case c == '[':
		for more := l.array(); more; more = l.moreItems() {
			l.Skip()
		}
	case c == '"':
		l.str()
	case c == 't':
		l.literal("true")
	case c == 'f':
		l.literal("false")
	case c == 'n':
		l.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		l.number()
	default:
		l.syntax("looking for beginning of value")
	}
}

// field returns the index of the field an (unescaped) object key
// selects among names, or -1, under encoding/json's rules: an exact
// match wins, otherwise the first name equal to the key after case
// folding (ASCII letters and Unicode simple folds). Every name must be
// lower-case ASCII, as all field names of the wire formats are.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key equals name after case folding.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		c := key[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(key[i:])
			f := foldRune(r)
			if f >= utf8.RuneSelf {
				return false
			}
			c = byte(f)
			i += size
		} else {
			i++
		}
		if j >= len(name) || upper(c) != upper(name[j]) {
			return false
		}
		j++
	}
	return j == len(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldRune returns the smallest rune of r's case-folding orbit — the
// canonical form encoding/json compares keys in.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
