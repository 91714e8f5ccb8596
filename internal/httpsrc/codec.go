package httpsrc

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"rewire/internal/graph"
)

// This file is the codec of the two neighbor-list 200 answers, the only
// bodies whose size grows with the lists they carry. Both directions work
// in one pass over bytes: the server appends integers with strconv, and the
// client parses ids straight into NodeID slices. The request body and the
// error answers are small and keep encoding/json.

// appendResults appends the 200 answer to a neighbor request for ids over
// g: byte for byte what json.Marshal makes of the matching results
// document, so ETags are those of the marshalled form. An id outside g gets
// an empty list and a "no such user" error entry, which only the batch
// route asks for.
func appendResults(buf []byte, g *graph.Graph, ids []graph.NodeID) []byte {
	buf = append(buf, `{"results":[`...)
	for i, v := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, `,"neighbors":[`...)
		user := v >= 0 && int(v) < g.NumNodes()
		if user {
			for j, w := range g.Neighbors(v) {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(w), 10)
			}
		}
		buf = append(buf, ']')
		if !user {
			buf = append(buf, `,"error":"no such user"`...)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// decodeNeighbors parses a 200 GET /neighbors body answering ids: one list
// per id, in order, or a *ProtocolError.
func decodeNeighbors(body []byte, ids []graph.NodeID) ([][]graph.NodeID, error) {
	lists, _, err := decodeResults(body, ids, false)
	return lists, err
}

// decodeBatch parses a 200 POST /neighbors/batch body answering ids: one
// list per id, in order, with per-id errors (nil when every id resolved) for
// ids the provider reports as "no such user". Anything else off-protocol is
// a *ProtocolError.
func decodeBatch(body []byte, ids []graph.NodeID) ([][]graph.NodeID, []error, error) {
	return decodeResults(body, ids, true)
}

// decodeResults parses a results document answering ids, in the batch form
// (where "error" is a field) or the GET form (where it is an unknown key).
// Every result must answer its id in order and carry a neighbor list; only
// a batch entry whose error is "no such user" may lack one. The lists share
// one exactly sized allocation, each capped at its own length.
func decodeResults(body []byte, ids []graph.NodeID, batch bool) ([][]graph.NodeID, []error, error) {
	d := decoders.Get().(*resultsDecoder)
	defer decoders.Put(d)
	err := d.decode(body, batch)
	d.b = nil // the pool must not keep the body
	if err != nil {
		return nil, nil, &ProtocolError{msg: "malformed results JSON: " + err.Error()}
	}
	res := d.res[:d.n]
	if len(res) != len(ids) {
		return nil, nil, &ProtocolError{msg: fmt.Sprintf("asked for %d ids, got %d results", len(ids), len(res))}
	}
	total := 0
	var errs []error
	for i, r := range res {
		if r.id != ids[i] {
			return nil, nil, &ProtocolError{msg: fmt.Sprintf("result %d answers id %d, want %d", i, r.id, ids[i])}
		}
		switch r.err {
		case noError:
			if !r.listed {
				return nil, nil, &ProtocolError{msg: fmt.Sprintf("result %d (id %d) carries no neighbor list", i, r.id)}
			}
			total += r.n
		case noSuchUser:
			if errs == nil {
				errs = make([]error, len(ids))
			}
			errs[i] = &noSuchUserError{id: r.id, hasID: true}
		default:
			return nil, nil, &ProtocolError{msg: fmt.Sprintf("result %d carries an unknown error", i)}
		}
	}
	all := make([]graph.NodeID, total)
	lists := make([][]graph.NodeID, len(ids))
	k := 0
	for i, r := range res {
		if errs != nil && errs[i] != nil {
			continue
		}
		lists[i] = all[k : k+r.n : k+r.n]
		copy(lists[i], d.ids[r.off:r.off+r.n])
		k += r.n
	}
	return lists, errs, nil
}

// decoders recycles resultsDecoders, whose scratch grows to the largest
// body decoded.
var decoders = sync.Pool{New: func() any { return new(resultsDecoder) }}

// errSyntax is every parse failure: the document is not JSON, or not the
// shape of a results document.
var errSyntax = errors.New("not a results document")

// maxDepth is encoding/json's nesting limit, which unknown values obey too.
const maxDepth = 10000

// errKind classifies a result's "error" field.
type errKind uint8

const (
	noError    errKind = iota // absent or ""
	noSuchUser                // "no such user"
	otherError                // anything else
)

// wireResult is one decoded result. Its list is ids[off:off+n] of the
// decoder's scratch; slots up to off+m hold what earlier occurrences of a
// repeated "neighbors" key wrote.
type wireResult struct {
	id     graph.NodeID
	listed bool // a neighbor array was given (and not nulled since)
	err    errKind
	off    int
	n, m   int
}

// resultsDecoder parses results documents in one pass. It accepts what
// encoding/json accepts into the schema — any JSON whitespace, keys in any
// order, escaped strings, unknown keys with any valid JSON value — and
// gives what it would decode:
//   - integers are JSON integers within int32: no fraction, no exponent;
//   - null leaves a field as it was, and turns a list into a missing one;
//   - a repeated key decodes onto what the previous occurrence left, so a
//     null element keeps the value an earlier array put in its slot.
//
// Keys match the schema exactly; encoding/json would also match them
// case-insensitively.
type resultsDecoder struct {
	b     []byte
	i     int
	batch bool           // "error" is a schema key
	res   []wireResult   // every slot ever written; the document has n
	n     int            // results in the document
	ids   []graph.NodeID // list scratch
	key   []byte         // unescaped key scratch
}

func (d *resultsDecoder) decode(body []byte, batch bool) error {
	d.b, d.i, d.batch = body, 0, batch
	d.res, d.n, d.ids = d.res[:0], 0, d.ids[:0]
	if d.ws() == 'n' {
		if err := d.literal("null"); err != nil {
			return err
		}
	} else if err := d.object(1, d.topMember); err != nil {
		return err
	}
	if d.ws(); d.i != len(d.b) {
		return errSyntax
	}
	return nil
}

// ws skips whitespace and returns the next byte (0 at the end).
func (d *resultsDecoder) ws() byte {
	if d.i < len(d.b) && d.b[d.i] > ' ' {
		return d.b[d.i] // no whitespace: the encoder's form, kept inlinable
	}
	return d.skipWS()
}

func (d *resultsDecoder) skipWS() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// object reads an object at the given depth, calling member for each key
// with the decoder positioned at the value.
func (d *resultsDecoder) object(depth int, member func(key []byte, depth int) error) error {
	if d.ws() != '{' || depth > maxDepth {
		return errSyntax
	}
	d.i++
	for first := true; ; first = false {
		more, err := d.more('}', first)
		if err != nil || !more {
			return err
		}
		if d.ws() != '"' {
			return errSyntax
		}
		key, err := d.unquote()
		if err != nil {
			return err
		}
		if d.ws() != ':' {
			return errSyntax
		}
		d.i++
		if err := member(key, depth); err != nil {
			return err
		}
	}
}

// array reads an array at the given depth, calling elem for each element
// with the decoder positioned at it.
func (d *resultsDecoder) array(depth int, elem func(depth int) error) error {
	if d.ws() != '[' || depth > maxDepth {
		return errSyntax
	}
	d.i++
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil || !more {
			return err
		}
		if err := elem(depth); err != nil {
			return err
		}
	}
}

// more reports whether the object or array being read has another member,
// consuming the comma before it, or the closing byte end.
func (d *resultsDecoder) more(end byte, first bool) (bool, error) {
	switch c := d.ws(); {
	case c == end:
		d.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	}
	return false, errSyntax
}

// topMember reads one member of the top-level object.
func (d *resultsDecoder) topMember(key []byte, depth int) error {
	if string(key) != "results" {
		return d.skip(depth)
	}
	if d.ws() == 'n' {
		d.res, d.n = d.res[:0], 0 // a nil slice: earlier slots are gone
		return d.literal("null")
	}
	n := 0
	err := d.array(depth+1, func(depth int) error {
		if n == len(d.res) {
			d.res = append(d.res, wireResult{})
		}
		n++
		if d.ws() == 'n' {
			return d.literal("null") // leaves the slot as it was
		}
		r := &d.res[n-1]
		return d.object(depth+1, func(key []byte, depth int) error { return d.resultMember(r, key, depth) })
	})
	d.n = n
	if n == 0 {
		d.res = d.res[:0] // a fresh empty slice
	}
	return err
}

// resultMember reads one member of a result object into r.
func (d *resultsDecoder) resultMember(r *wireResult, key []byte, depth int) error {
	switch {
	case string(key) == "id":
		v, null, err := d.int32()
		if !null {
			r.id = v
		}
		return err
	case string(key) == "neighbors":
		return d.list(r)
	case string(key) == "error" && d.batch:
		if d.ws() == 'n' {
			return d.literal("null")
		}
		if d.ws() != '"' {
			return errSyntax
		}
		s, err := d.unquote()
		switch {
		case len(s) == 0:
			r.err = noError
		case string(s) == "no such user":
			r.err = noSuchUser
		default:
			r.err = otherError
		}
		return err
	}
	return d.skip(depth)
}

// list reads a "neighbors" value into r.
func (d *resultsDecoder) list(r *wireResult) error {
	switch d.ws() {
	case 'n':
		r.listed, r.n, r.m = false, 0, 0
		return d.literal("null")
	case '[':
		d.i++
	default:
		return errSyntax
	}
	n := 0
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == r.m {
			if r.off+r.m != len(d.ids) {
				// Not at the end of the scratch: move the slots there.
				d.ids = append(d.ids, d.ids[r.off:r.off+r.m]...)
				r.off = len(d.ids) - r.m
			}
			d.ids = append(d.ids, 0)
			r.m++
		}
		v, null, err := d.int32()
		if err != nil {
			return err
		}
		if !null {
			d.ids[r.off+n] = v
		}
		n++
	}
	r.listed, r.n = true, n
	if n == 0 {
		r.m = 0 // a fresh empty slice
	}
	return nil
}

// int32 reads an integer within int32, or null.
func (d *resultsDecoder) int32() (v graph.NodeID, null bool, err error) {
	c := d.ws()
	if c == 'n' {
		return 0, true, d.literal("null")
	}
	b := d.b[d.i:]
	neg := c == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || b[0]-'0' > 9 {
		return 0, false, errSyntax
	}
	n := 1 // digits read; a leading 0 is the whole integer part
	u := uint64(b[0] - '0')
	if u != 0 {
		for ; n < len(b) && b[n]-'0' <= 9; n++ {
			u = u*10 + uint64(b[n]-'0')
		}
	}
	if n < len(b) && (b[n] == '.' || b[n] == 'e' || b[n] == 'E') {
		return 0, false, errSyntax // a number, but not an integer
	}
	if n > 10 || u > 1<<31 || !neg && u == 1<<31 {
		return 0, false, errSyntax // outside int32
	}
	d.i = len(d.b) - len(b) + n
	if neg {
		return graph.NodeID(-int64(u)), false, nil
	}
	return graph.NodeID(u), false, nil
}

// literal consumes the literal lit.
func (d *resultsDecoder) literal(lit string) error {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return errSyntax
	}
	d.i += len(lit)
	return nil
}

// unquote reads a string and returns its contents, unescaped when it has
// escapes. The result is only compared with ASCII names: a \u escape
// outside ASCII, and invalid UTF-8, never yield an ASCII byte, although
// they may differ from encoding/json's replacement of invalid sequences.
func (d *resultsDecoder) unquote() ([]byte, error) {
	raw, escaped, err := d.str()
	if err != nil || !escaped {
		return raw, err
	}
	k := d.key[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			k = append(k, c)
			i++
			continue
		}
		switch e := raw[i+1]; e {
		case 'u':
			r, _ := strconv.ParseUint(string(raw[i+2:i+6]), 16, 16)
			k = utf8.AppendRune(k, rune(r)) // a surrogate becomes U+FFFD
			i += 6
			continue
		case 'b':
			k = append(k, '\b')
		case 'f':
			k = append(k, '\f')
		case 'n':
			k = append(k, '\n')
		case 'r':
			k = append(k, '\r')
		case 't':
			k = append(k, '\t')
		default: // '"', '\\', '/'
			k = append(k, e)
		}
		i += 2
	}
	d.key = k
	return k, nil
}

// str reads a string, validating its escapes, and returns the bytes between
// the quotes and whether any is escaped.
func (d *resultsDecoder) str() (raw []byte, escaped bool, err error) {
	b := d.b
	start := d.i + 1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], escaped, nil
		case c == '\\':
			escaped = true
			if i+1 >= len(b) {
				return nil, false, errSyntax
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) || !isHex4(b[i+2:i+6]) {
					return nil, false, errSyntax
				}
				i += 6
			default:
				return nil, false, errSyntax
			}
		case c < 0x20:
			return nil, false, errSyntax
		default:
			i++
		}
	}
	return nil, false, errSyntax
}

func isHex4(h []byte) bool {
	for _, c := range h {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// skip reads and validates one JSON value of an unknown key or element,
// inside containers nested depth deep.
func (d *resultsDecoder) skip(depth int) error {
	switch c := d.ws(); {
	case c == '{':
		return d.object(depth+1, func(_ []byte, depth int) error { return d.skip(depth) })
	case c == '[':
		return d.array(depth+1, d.skip)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return errSyntax
}

// number reads a JSON number of any form.
func (d *resultsDecoder) number() error {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return errSyntax
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return errSyntax
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return errSyntax
		}
	}
	d.i = i
	return nil
}
