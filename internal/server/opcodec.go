package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// The op codec.  A POST /update body is an array of a thousand or so ops,
// and decoding it by reflection cost a third of what inserting the ops did.
// This file is the one place that reads and writes those bodies: DecodeOps
// on the shard and on the gateway, AppendOps where the gateway forwards each
// shard its part.  The grammar is one JSON array of op objects:
//
//	[{"xl":X,"yl":Y,"xu":X,"yu":Y,"data":N,"delete":B}, ...]
//
// Every key but "delete" is required, and none may appear twice; the keys
// are matched exactly, so a key spelt in another case or with an escape is
// an unknown one.  The corners are JSON numbers a float64 holds (a finite
// one too large is refused), data is an integer in int32 range and delete a
// bool; null is none of these.  Whitespace may stand wherever JSON allows
// it, and nothing but whitespace may follow the array.  Whatever DecodeOps
// accepts, encoding/json decodes to the same ops, bit for bit
// (FuzzDecodeOps); encoding/json also takes some bodies DecodeOps refuses,
// which the README lists.

// OpsSyntaxError is DecodeOps' error: where the body breaks the grammar and
// how.
type OpsSyntaxError struct {
	// Offset is the byte offset in the body where the body breaks it.
	Offset int
	// Op is the index of the op being read there, or -1 outside any.
	Op int
	// Msg says what is wrong.
	Msg string
}

func (e *OpsSyntaxError) Error() string {
	if e.Op < 0 {
		return fmt.Sprintf("server: /update body byte %d: %s", e.Offset, e.Msg)
	}
	return fmt.Sprintf("server: /update body byte %d: op %d: %s", e.Offset, e.Op, e.Msg)
}

// The op keys, in the order AppendOps writes them; each is a bit of an op's
// seen set, and every key before keyDelete is required.
const (
	keyXL = iota
	keyYL
	keyXU
	keyYU
	keyData
	keyDelete
	requiredSet = 1<<keyDelete - 1
)

var opKeys = [...]string{keyXL: "xl", keyYL: "yl", keyXU: "xu", keyYU: "yu", keyData: "data", keyDelete: "delete"}

// minOpLen is the length of the shortest op: a body of n ops is at least
// n times as long.
const minOpLen = len(`{"xl":0,"yl":0,"xu":0,"yu":0,"data":0}`)

// DecodeOps parses an /update body into its ops.  It makes one allocation,
// the result: a body of n ops holds at least n '{' bytes and at least
// n*minOpLen bytes, so the slice is sized by the smaller of the two bounds
// before the ops are read.  The second keeps a body of nothing but '{'
// from sizing a slice 40 times its length.
func DecodeOps(b []byte) ([]OpWire, error) {
	d := opDecoder{b: b, op: -1}
	d.space()
	if !d.take('[') {
		return nil, d.fail("want the '[' of an array of ops")
	}
	ops := make([]OpWire, 0, min(bytes.Count(b, []byte{'{'}), len(b)/minOpLen))
	d.space()
	if !d.take(']') {
		for {
			d.op = len(ops)
			op, err := d.object()
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
			d.op = -1
			d.space()
			if d.take(']') {
				break
			}
			if !d.take(',') {
				return nil, d.fail("want ',' or ']' after an op")
			}
			d.space()
		}
	}
	d.space()
	if d.i < len(b) {
		return nil, d.fail("data after the array")
	}
	return ops, nil
}

// opDecoder is DecodeOps' cursor.
type opDecoder struct {
	b  []byte
	i  int
	op int
}

func (d *opDecoder) fail(format string, args ...any) error {
	return &OpsSyntaxError{Offset: d.i, Op: d.op, Msg: fmt.Sprintf(format, args...)}
}

// space skips JSON whitespace.
func (d *opDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// take consumes c if it is the next byte.
func (d *opDecoder) take(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads one op object.
func (d *opDecoder) object() (OpWire, error) {
	var op OpWire
	if !d.take('{') {
		return op, d.fail("want the '{' of an op")
	}
	var seen uint8
	d.space()
	if !d.take('}') {
		for {
			k, err := d.key()
			if err != nil {
				return op, err
			}
			if seen&(1<<k) != 0 {
				return op, d.fail("duplicate key %q", opKeys[k])
			}
			seen |= 1 << k
			d.space()
			if !d.take(':') {
				return op, d.fail("want ':' after key %q", opKeys[k])
			}
			d.space()
			switch k {
			case keyXL:
				op.XL, err = d.float()
			case keyYL:
				op.YL, err = d.float()
			case keyXU:
				op.XU, err = d.float()
			case keyYU:
				op.YU, err = d.float()
			case keyData:
				op.Data, err = d.int32()
			case keyDelete:
				op.Delete, err = d.bool()
			}
			if err != nil {
				return op, err
			}
			d.space()
			if d.take('}') {
				break
			}
			if !d.take(',') {
				return op, d.fail("want ',' or '}' after the value of %q", opKeys[k])
			}
			d.space()
		}
	}
	if missing := requiredSet &^ seen; missing != 0 {
		for k := range opKeys {
			if missing&(1<<k) != 0 {
				return op, d.fail("missing key %q", opKeys[k])
			}
		}
	}
	return op, nil
}

// key reads a quoted key and returns its index in opKeys.
func (d *opDecoder) key() (int, error) {
	if !d.take('"') {
		return 0, d.fail("want a quoted key")
	}
	from := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' {
		if d.b[d.i] == '\\' {
			return 0, d.fail("key spelt with an escape")
		}
		d.i++
	}
	if d.i == len(d.b) {
		return 0, d.fail("unterminated key")
	}
	name := d.b[from:d.i]
	d.i++
	for k, want := range opKeys {
		if string(name) == want {
			return k, nil
		}
	}
	d.i = from
	if len(name) > 64 {
		name = name[:64]
	}
	return 0, d.fail("unknown field %q", name)
}

// number checks the JSON number grammar at the cursor and returns the
// number's end, or -1 if there is no number there.
//
//	-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
func (d *opDecoder) number() (end int, integer bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		i = digits(b, i)
	default:
		return -1, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return -1, false
		}
		i, integer = j, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return -1, false
		}
		i, integer = j, false
	}
	return i, integer
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

func (d *opDecoder) float() (float64, error) {
	end, _ := d.number()
	if end < 0 {
		return 0, d.fail("%s is not a number", d.token())
	}
	// ParseFloat also reads inf, nan, hex and a plus sign, which the
	// grammar check above has ruled out.
	v, err := strconv.ParseFloat(string(d.b[d.i:end]), 64)
	if err != nil {
		return 0, d.fail("number %s is out of float64 range", d.token())
	}
	d.i = end
	return v, nil
}

func (d *opDecoder) int32() (int32, error) {
	end, integer := d.number()
	if end < 0 || !integer {
		return 0, d.fail("%s is not an integer", d.token())
	}
	v, err := strconv.ParseInt(string(d.b[d.i:end]), 10, 32)
	if err != nil {
		return 0, d.fail("data %s is out of int32 range", d.token())
	}
	d.i = end
	return int32(v), nil
}

func (d *opDecoder) bool() (bool, error) {
	for _, lit := range [...]string{"false", "true"} {
		if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
			d.i += len(lit)
			return lit == "true", nil
		}
	}
	return false, d.fail("%s is not a bool", d.token())
}

// token is the value at the cursor, for an error message: up to the next
// delimiter, at most 32 bytes, quoted.
func (d *opDecoder) token() string {
	j := d.i
	for j < len(d.b) && j-d.i < 32 && strings.IndexByte(",}] \t\r\n", d.b[j]) < 0 {
		j++
	}
	if j == d.i {
		if j == len(d.b) {
			return "the end of the body"
		}
		j++
	}
	return strconv.Quote(string(d.b[d.i:j]))
}

// AppendOps appends ops as an /update body: exactly the bytes json.Marshal
// writes for them, which DecodeOps reads back bit for bit.  A non-finite
// corner, which json.Marshal refuses, is written as strconv formats it and
// makes the body one DecodeOps refuses; the gateway checks every op
// (CheckOp) before it encodes any.
func AppendOps(dst []byte, ops []OpWire) []byte {
	dst = append(dst, '[')
	for i, op := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"xl":`...)
		dst = appendFloat(dst, op.XL)
		dst = append(dst, `,"yl":`...)
		dst = appendFloat(dst, op.YL)
		dst = append(dst, `,"xu":`...)
		dst = appendFloat(dst, op.XU)
		dst = append(dst, `,"yu":`...)
		dst = appendFloat(dst, op.YU)
		dst = append(dst, `,"data":`...)
		dst = strconv.AppendInt(dst, int64(op.Data), 10)
		if op.Delete {
			dst = append(dst, `,"delete":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendFloat writes f as encoding/json does: the shortest decimal that
// reads back as f, in exponent form only below 1e-6 or from 1e21 on, with
// a one-digit negative exponent not padded to two (1e-7, not 1e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// DecodeOpsRequest reads an /update body of at most MaxUpdateBody bytes and
// decodes it with DecodeOps.  On failure it writes the error response, as
// DecodeRequest does, and reports false.
func DecodeOpsRequest(w http.ResponseWriter, r *http.Request) ([]OpWire, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxUpdateBody))
	var ops []OpWire
	if err == nil {
		ops, err = DecodeOps(body)
	}
	if err != nil {
		writeRequestError(w, err)
		return nil, false
	}
	return ops, true
}
