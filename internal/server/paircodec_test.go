package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/join"
)

// referenceEncode is what the /join handler wrote before the pair codec:
// json.NewEncoder(w).Encode(JoinResponseWire{...}).
func referenceEncode(t testing.TB, wire JoinResponseWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wirePairs(pairs []join.Pair) [][2]int32 {
	if pairs == nil {
		return nil
	}
	out := make([][2]int32, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int32{p.R, p.S}
	}
	return out
}

// checkDecodeMatchesJSON is the decoder's whole contract: on any bytes it
// fails exactly when json.Unmarshal fails and otherwise yields the same
// value.
func checkDecodeMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	var got, want JoinResponseWire
	gotErr := DecodeJoinResponse(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec decoded %#v, encoding/json %#v", data, got, want)
	}
}

// FuzzPairCodec is the differential wall against encoding/json: (i) for any
// (epoch, count, retries, pairs) the streaming encoder's bytes are
// json.Encoder's whatever the chunk size — so wherever a chunk boundary
// falls — and the fast decoder reads them back without falling back; (ii)
// for any bytes the decoder agrees with json.Unmarshal.
func FuzzPairCodec(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"epoch":1,"count":0}`,
		`{"epoch":7,"count":2,"retries":1,"pairs":[[1,2],[-3,4]]}`,
		`{"pairs":null}`,
		`{"pairs":[]}`,
		" {\t\"epoch\" : 1 ,\r\n \"pairs\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } \n",
		`{"count":-0}`,
		`{"epoch":-0}`,
		`{"count":01}`,
		`{"count":1e3}`,
		`{"count":1.0}`,
		`{"pairs":[[2147483647,-2147483648]]}`,
		`{"pairs":[[2147483648,0]]}`,
		`{"pairs":[[0,-2147483649]]}`,
		`{"pairs":[[1]]}`,
		`{"pairs":[[1,2,3]]}`,
		`{"pairs":[null]}`,
		`{"pairs":[[1,2],]}`,
		`{"epoch":18446744073709551615}`,
		`{"epoch":18446744073709551616}`,
		`{"count":9223372036854775807,"retries":-9223372036854775808}`,
		`{"unknown":1,"count":2}`,
		`{"Count":3}`,
		`{"count":1,"count":2}`,
		`{"pairs":[[1,2]],"pairs":[]}`,
		`{"epoch":1,"count":1,"pairs":[[1,2]`,
		`{"epoch":1,"count":0}garbage`,
		`{"epoch":1,"count":0}{}`,
		`[]`,
		`null`,
		`{"pairs":[[1,2],[-3,4]],"epoch":7,"count":2,"retries":1}` + "\n",
	} {
		f.Add([]byte(seed), uint64(0), 0, 0)
	}
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 128}, uint64(9), 2, 1)
	f.Add([]byte{}, uint64(1<<63), -5, -1)

	f.Fuzz(func(t *testing.T, data []byte, epoch uint64, count, retries int) {
		checkDecodeMatchesJSON(t, data)

		var pairs [][2]int32
		for b := data; len(b) >= 8; b = b[8:] {
			pairs = append(pairs, [2]int32{int32(binary.LittleEndian.Uint32(b[:4])), int32(binary.LittleEndian.Uint32(b[4:8]))})
		}
		wire := JoinResponseWire{Epoch: epoch, Count: count, Retries: retries, Pairs: pairs}
		want := referenceEncode(t, wire)
		for _, c := range chunkSizes(len(want)) {
			checkStreamed(t, wire, want, c)
		}
		var back JoinResponseWire
		if !decodeJoinResponseFast(want, &back) {
			t.Fatalf("fast path refused the encoder's own output %q", want)
		}
		if !reflect.DeepEqual(back, wire) {
			t.Fatalf("round trip: %#v, want %#v", back, wire)
		}
		if n := len(pairs); n > 0 && count == n && cap(back.Pairs) != n {
			t.Fatalf("the body's trailing count %d sized a slice of capacity %d", n, cap(back.Pairs))
		}
		if wire.Pairs != nil {
			arr, err := json.Marshal(wire.Pairs)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendPairArray(nil, wire.Pairs); !bytes.Equal(got, arr) {
				t.Fatalf("AppendPairArray wrote %q, encoding/json %q", got, arr)
			}
		}
	})
}

// chunkRecorder is an http.ResponseWriter that remembers the size of every
// Write, so a test sees where the encoder cut the body.
type chunkRecorder struct {
	header http.Header
	code   int
	body   []byte
	writes []int
}

func (c *chunkRecorder) Header() http.Header { return c.header }

func (c *chunkRecorder) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

func (c *chunkRecorder) Write(b []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.body = append(c.body, b...)
	c.writes = append(c.writes, len(b))
	return len(b), nil
}

// chunkSizes is every chunk size up to 16 bytes — 1 puts a boundary at every
// position of the body — then a geometric ladder, and the sizes either side
// of a body of n bytes, where the encoder switches between one piece with a
// Content-Length and chunks.
func chunkSizes(n int) []int {
	var out []int
	for c := 1; c <= n+1; c += 1 + c/16 {
		out = append(out, c)
	}
	return append(out, max(n-1, 1), max(n, 1), n+1)
}

// checkStreamed encodes wire the way the /join handler does, cutting the
// body every chunk bytes, and holds the result to want: the writes
// concatenate to it, a body that fits one chunk is one write with its
// Content-Length, and a longer one is written without one in pieces of
// exactly chunk bytes but the last.
func checkStreamed(t *testing.T, wire JoinResponseWire, want []byte, chunk int) {
	t.Helper()
	rec := &chunkRecorder{header: http.Header{}}
	e := newPairEncoder(rec, chunk)
	for _, p := range wire.Pairs {
		e.pair(join.Pair{R: p[0], S: p[1]})
	}
	e.close(wire.Epoch, wire.Count, wire.Retries)
	e.release()

	if !bytes.Equal(rec.body, want) {
		t.Fatalf("chunk %d: encoder wrote %q, encoding/json %q", chunk, rec.body, want)
	}
	if rec.code != http.StatusOK || rec.header.Get("Content-Type") != "application/json" {
		t.Fatalf("chunk %d: status %d, Content-Type %q", chunk, rec.code, rec.header.Get("Content-Type"))
	}
	cl := rec.header.Get("Content-Length")
	if len(want) <= chunk {
		if len(rec.writes) != 1 || cl != strconv.Itoa(len(want)) {
			t.Fatalf("chunk %d: a %d-byte body took %d writes, Content-Length %q", chunk, len(want), len(rec.writes), cl)
		}
		return
	}
	if cl != "" {
		t.Fatalf("chunk %d: a %d-byte streamed body declared Content-Length %q", chunk, len(want), cl)
	}
	for i, n := range rec.writes {
		if n != chunk && (i < len(rec.writes)-1 || n == 0 || n > chunk) {
			t.Fatalf("chunk %d: write %d of %d is %d bytes", chunk, i, len(rec.writes), n)
		}
	}
}

// TestJoinResponseBytesAreEncodingJSONs pins byte identity with encoding/json
// on fixed responses, with and without retries and pairs, at every chunking.
func TestJoinResponseBytesAreEncodingJSONs(t *testing.T) {
	for _, wire := range []JoinResponseWire{
		{},
		{Epoch: 3, Count: 0},
		{Epoch: 3, Count: 2, Pairs: [][2]int32{{1, 1000000}, {-7, 5}}},
		{Epoch: 4, Count: 1, Retries: 2, Pairs: [][2]int32{{0, 0}}},
		{Epoch: 5, Count: 120, Retries: 1},
	} {
		want := referenceEncode(t, wire)
		for _, c := range chunkSizes(len(want)) {
			checkStreamed(t, wire, want, c)
		}
	}
}

// TestHandlerJoinBodyIsCanonical drives the real handler: its /join body
// must be exactly what encoding/json writes for the value it carries,
// declare its length exactly when it fits one wire chunk, go through the
// decoder's fast path — a fallback here would mean the router pays
// reflection on every request — and come back byte for byte when the same
// request runs again on the same epoch.
func TestHandlerJoinBodyIsCanonical(t *testing.T) {
	fx := newWideFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	for _, req := range []JoinRequestWire{{}, {Predicate: "within:0.01"}, {Workers: 3}, {DiscardPairs: true}, {Predicate: "knn:2"}} {
		w := doHTTP(t, h, "POST", "/join", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%+v: %d %s", req, w.Code, w.Body)
		}
		body := w.Body.Bytes()
		if req == (JoinRequestWire{}) && len(body) <= wireChunk {
			t.Fatalf("the full join is %d bytes, not more than one %d-byte chunk: the streamed path is untested", len(body), wireChunk)
		}
		cl := w.Header().Get("Content-Length")
		if fits := len(body) <= wireChunk; fits && cl != strconv.Itoa(len(body)) || !fits && cl != "" {
			t.Errorf("%+v: Content-Length %q for a %d-byte body", req, cl, len(body))
		}
		var want JoinResponseWire
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if req.DiscardPairs != (want.Pairs == nil) || want.Count == 0 {
			t.Fatalf("%+v: count %d with %d pairs", req, want.Count, len(want.Pairs))
		}
		if ref := referenceEncode(t, want); !bytes.Equal(body, ref) {
			t.Errorf("%+v: body differs from encoding/json's encoding of the same value", req)
		}
		var got JoinResponseWire
		if !decodeJoinResponseFast(body, &got) {
			t.Fatalf("%+v: the handler's own output fell back to encoding/json", req)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: fast path decoded a different value than encoding/json", req)
		}
		if again := doHTTP(t, h, "POST", "/join", req); !bytes.Equal(again.Body.Bytes(), body) {
			t.Errorf("%+v: a second request on epoch %d got different bytes", req, want.Epoch)
		}
	}
}
