package server

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"repro/internal/join"
)

// The pair codec.  A /join response is almost entirely integer pairs, and
// reflecting over them — encoding/json walking a [][2]int32 element by
// element — cost more than finding them.  This file is the one place that
// knows the response's bytes: an encoder the shard handler and the gateway
// append with, and a decoder the router reads shard bodies with.  It is a
// replacement for encoding/json on this path, not an alternative to it: the
// bytes are exactly json.NewEncoder(w).Encode(JoinResponseWire{...})'s, and
// the decoder hands anything but that canonical shape (plus whitespace) to
// json.Unmarshal, so it accepts and rejects what encoding/json does.

// wireBufPool recycles response buffers; a full join's body is ~800 KB.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendJoinResponse appends the JSON encoding of
// JoinResponseWire{epoch, count, retries, pairs} and the encoder's trailing
// newline.  Like the struct's omitempty tags, it leaves out a zero retries
// and an empty pairs.
func appendJoinResponse(dst []byte, epoch uint64, count, retries int, pairs []join.Pair) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(count), 10)
	if retries != 0 {
		dst = append(dst, `,"retries":`...)
		dst = strconv.AppendInt(dst, int64(retries), 10)
	}
	if len(pairs) > 0 {
		dst = append(dst, `,"pairs":[`...)
		for i, p := range pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendPair(dst, p.R, p.S)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

// AppendPairArray appends pairs as the JSON array [[r,s],...] — the bytes
// encoding/json produces for a non-nil [][2]int32.
func AppendPairArray(dst []byte, pairs [][2]int32) []byte {
	dst = append(dst, '[')
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPair(dst, p[0], p[1])
	}
	return append(dst, ']')
}

func appendPair(dst []byte, r, s int32) []byte {
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, int64(r), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s), 10)
	return append(dst, ']')
}

// DecodeJoinResponse is json.Unmarshal(data, out) for a /join response
// body.  A body of the canonical shape is decoded in one pass without
// reflection; anything else — an unknown or repeated key, a null, a float,
// a leading zero, an out-of-range integer, a pair that is not two numbers,
// trailing bytes — is json.Unmarshal's to accept or reject.
func DecodeJoinResponse(data []byte, out *JoinResponseWire) error {
	if decodeJoinResponseFast(data, out) {
		return nil
	}
	return json.Unmarshal(data, out)
}

// decodeJoinResponseFast decodes the canonical shape and reports whether it
// did; on false *out is untouched.
func decodeJoinResponseFast(data []byte, out *JoinResponseWire) bool {
	d := pairDecoder{b: data}
	res := *out
	var seenEpoch, seenCount, seenRetries, seenPairs bool
	if !d.consume('{') {
		return false
	}
	if !d.consume('}') {
		for {
			key, ok := d.key()
			if !ok || !d.consume(':') {
				return false
			}
			switch string(key) {
			case "epoch":
				v, ok := d.uint()
				if !ok || seenEpoch {
					return false
				}
				seenEpoch, res.Epoch = true, v
			case "count":
				v, ok := d.int(math.MinInt, math.MaxInt)
				if !ok || seenCount {
					return false
				}
				seenCount, res.Count = true, int(v)
			case "retries":
				v, ok := d.int(math.MinInt, math.MaxInt)
				if !ok || seenRetries {
					return false
				}
				seenRetries, res.Retries = true, int(v)
			case "pairs":
				if seenPairs {
					return false
				}
				// count usually precedes pairs; when it is plausible for the
				// bytes that remain (a pair takes at least `[0,0]`) it sizes
				// the slice exactly.
				hint := 0
				if res.Count > 0 && res.Count <= (len(d.b)-d.i)/5 {
					hint = res.Count
				}
				pairs, ok := d.pairs(hint)
				if !ok {
					return false
				}
				seenPairs, res.Pairs = true, pairs
			default:
				return false
			}
			if d.consume(',') {
				continue
			}
			if d.consume('}') {
				break
			}
			return false
		}
	}
	d.skipSpace()
	if d.i != len(d.b) {
		return false
	}
	*out = res
	return true
}

// pairDecoder scans the canonical /join response grammar.  Every method
// reports false on input outside that grammar; the caller then falls back.
type pairDecoder struct {
	b []byte
	i int
}

func (d *pairDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *pairDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key reads an object key made of lower-case letters — all the wire's keys
// are — so escapes, and the case folding encoding/json matches keys with,
// never reach the fast path.
func (d *pairDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	from := d.i
	for d.i < len(d.b) && d.b[d.i] >= 'a' && d.b[d.i] <= 'z' {
		d.i++
	}
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	d.i++
	return d.b[from : d.i-1], true
}

// digits reads `0` or a run of digits without a leading zero, as a
// magnitude of at most limit, and requires that the JSON number ends there
// (no fraction, no exponent).
func (d *pairDecoder) digits(limit uint64) (uint64, bool) {
	b, from := d.b, d.i
	i, v := from, uint64(0)
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	d.i = i
	n := i - from
	if n > 18 {
		// The accumulator may have wrapped; strconv checks the range.
		var err error
		if v, err = strconv.ParseUint(string(b[from:i]), 10, 64); err != nil {
			return 0, false
		}
	}
	if n == 0 || v > limit || (n > 1 && b[from] == '0') {
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	return v, true
}

func (d *pairDecoder) uint() (uint64, bool) {
	d.skipSpace()
	return d.digits(math.MaxUint64)
}

// int reads an integer in [lo, hi], lo < 0 <= hi.
func (d *pairDecoder) int(lo, hi int64) (int64, bool) {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
		v, ok := d.digits(-uint64(lo))
		return -int64(v), ok
	}
	v, ok := d.digits(uint64(hi))
	return int64(v), ok
}

// pairs reads [[r,s],...] into a non-nil slice, as encoding/json does for a
// present, non-null array.
func (d *pairDecoder) pairs(hint int) ([][2]int32, bool) {
	if !d.consume('[') {
		return nil, false
	}
	out := make([][2]int32, 0, hint)
	if d.consume(']') {
		return out, true
	}
	for {
		if !d.consume('[') {
			return nil, false
		}
		r, ok := d.int(math.MinInt32, math.MaxInt32)
		if !ok || !d.consume(',') {
			return nil, false
		}
		s, ok := d.int(math.MinInt32, math.MaxInt32)
		if !ok || !d.consume(']') {
			return nil, false
		}
		out = append(out, [2]int32{int32(r), int32(s)})
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return out, true
		}
		return nil, false
	}
}
