package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
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

// scanChunks runs a PairScanner over data cut into the given pieces,
// collecting the pairs (nil when there are none, as encoding/json leaves
// them) and the pair bytes Scan hands back.
func scanChunks(data []byte, discard bool, cuts []int) (JoinResponseWire, []byte, error) {
	var pairs [][2]int32
	sc := PairScanner{Discard: discard, OnPair: func(r, s int32) error {
		pairs = append(pairs, [2]int32{r, s})
		return nil
	}}
	var pairBytes []byte
	from := 0
	for _, to := range append(cuts, len(data)) {
		got, err := sc.Scan(data[from:to:to])
		if err != nil {
			return JoinResponseWire{}, nil, err
		}
		pairBytes = append(pairBytes, got...)
		from = to
	}
	wire, err := sc.Close()
	wire.Pairs = pairs
	return wire, pairBytes, err
}

// scanJoinBody scans a whole /join body in chunks of the given size.
func scanJoinBody(data []byte, discard bool, chunk int) (JoinResponseWire, error) {
	var cuts []int
	for c := chunk; c < len(data); c += chunk {
		cuts = append(cuts, c)
	}
	wire, _, err := scanChunks(data, discard, cuts)
	return wire, err
}

// checkScan is the scanner's whole contract on any bytes: it never panics;
// wherever the chunk boundaries fall — one at every position, and the body
// cut in two at every position, which cuts the inner loop's elements
// everywhere — it reaches the same verdict, value and pair bytes as on the
// whole body; what it accepts json.Unmarshal decodes to the same value; and
// the pair bytes are the pair array's contents.  It returns the value and
// whether the scanner accepted the body.
func checkScan(t *testing.T, data []byte, discard bool, everyCut bool) (JoinResponseWire, bool) {
	t.Helper()
	want, wantBytes, wantErr := scanChunks(data, discard, nil)
	same := func(how string, cuts []int) {
		got, gotBytes, err := scanChunks(data, discard, cuts)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) || !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%q (discard %v) %s: %+v, %q, %v; whole: %+v, %q, %v", data, discard, how, got, gotBytes, err, want, wantBytes, wantErr)
		}
	}
	var ones []int
	for i := 1; i < len(data); i++ {
		ones = append(ones, i)
	}
	same("in 1-byte chunks", ones)
	for i := 0; everyCut && i <= len(data); i++ {
		same(fmt.Sprintf("cut at %d", i), []int{i})
	}
	if wantErr != nil {
		return JoinResponseWire{}, false
	}
	var ref JoinResponseWire
	if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(ref, want) {
		t.Fatalf("%q (discard %v): scanned %+v, encoding/json %+v (%v)", data, discard, want, ref, err)
	}
	arr, err := json.Marshal(want.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Pairs == nil {
		arr = []byte("[]")
	}
	if inner := arr[1 : len(arr)-1]; !bytes.Equal(wantBytes, inner) {
		t.Fatalf("%q: pair bytes %q, the array holds %q", data, wantBytes, inner)
	}
	return want, true
}

// wireSeeds are bodies at and around the canonical grammar's edges.
var wireSeeds = []string{
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
}

// FuzzPairCodec is the differential wall against encoding/json: (i) for any
// (epoch, count, retries, pairs) the streaming encoder's bytes are
// json.Encoder's whatever the chunk size — so wherever a chunk boundary
// falls; (ii) the scanner reads the encoder's bytes back exactly when they
// are a reply a shard can send (count the number of pairs, or no pairs
// when discarding; nothing negative); (iii) the scanner is canonical-only:
// any bytes it accepts are the encoder's bytes for the value it read.
func FuzzPairCodec(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed), uint64(0), 0, 0)
	}
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 128}, uint64(9), 2, 1)
	f.Add([]byte{}, uint64(1<<63), -5, -1)

	f.Fuzz(func(t *testing.T, data []byte, epoch uint64, count, retries int) {
		for _, discard := range []bool{false, true} {
			if wire, ok := checkScan(t, data, discard, false); ok {
				if enc := referenceEncode(t, wire); !bytes.Equal(enc, data) {
					t.Fatalf("the scanner accepted %q, which encodes as %q", data, enc)
				}
			}
		}

		var pairs [][2]int32
		for b := data; len(b) >= 8; b = b[8:] {
			pairs = append(pairs, [2]int32{int32(binary.LittleEndian.Uint32(b[:4])), int32(binary.LittleEndian.Uint32(b[4:8]))})
		}
		wire := JoinResponseWire{Epoch: epoch, Count: count, Retries: retries, Pairs: pairs}
		want := referenceEncode(t, wire)
		for _, c := range chunkSizes(len(want)) {
			checkStreamed(t, wire, want, c)
		}
		for _, discard := range []bool{false, true} {
			sendable := retries >= 0 && count >= 0 && (discard && pairs == nil || !discard && count == len(pairs))
			back, ok := checkScan(t, want, discard, false)
			if ok != sendable {
				t.Fatalf("discard %v: the scanner accepted %q: %v, want %v", discard, want, ok, sendable)
			}
			if ok && !reflect.DeepEqual(back, wire) {
				t.Fatalf("round trip: %#v, want %#v", back, wire)
			}
		}
	})
}

// FuzzWire holds the shard-body scanner to checkScan on any bytes, in both
// modes, with a chunk boundary at every position.
func FuzzWire(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed), false)
	}
	for _, seed := range []string{
		`{"pairs":[[1,2],[3,4]],"epoch":1,"count":2}` + "\n",
		`{"pairs":[[0,0],[-1,10]],"epoch":0,"count":1,"retries":2}` + "\n",
		`{"pairs":[[-0,1]],"epoch":1,"count":1}` + "\n",
		`{"pairs":[[01,1]],"epoch":1,"count":1}` + "\n",
		// The same breaks where the inner loop reads them: not in the last
		// element.
		`{"pairs":[[-0,1],[2,3]],"epoch":1,"count":2}` + "\n",
		`{"pairs":[[1,01],[2,3]],"epoch":1,"count":2}` + "\n",
		`{"pairs":[[2147483648,1],[2,3]],"epoch":1,"count":2}` + "\n",
		`{"pairs":[[-2147483648,2147483647],[2,3]],"epoch":1,"count":2}` + "\n",
		`{"pairs":[[12345678901,1],[2,3]],"epoch":1,"count":2}` + "\n",
		`{"pairs":[[1,2]],"epoch":1,"count":1,"retries":0}` + "\n",
		`{"pairs":[[1,2]],"epoch":1,"count":1}`,
		`{"pairs":[[1,2]],"epoch":1,"count":1}` + "\n\n",
		`{"epoch":3,"count":7}` + "\n",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, discard bool) {
		checkScan(t, data, discard, true)
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
// declare its length exactly when it fits one wire chunk, pass the scanner
// the gateway reads it with, and come back byte for byte when the same
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
		if req == (JoinRequestWire{}) && len(body) <= WireChunk {
			t.Fatalf("the full join is %d bytes, not more than one %d-byte chunk: the streamed path is untested", len(body), WireChunk)
		}
		cl := w.Header().Get("Content-Length")
		if fits := len(body) <= WireChunk; fits && cl != strconv.Itoa(len(body)) || !fits && cl != "" {
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
		if got, err := scanJoinBody(body, req.DiscardPairs, WireChunk); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: the scanner read %+v (%v), encoding/json %+v", req, got, err, want)
		}
		if again := doHTTP(t, h, "POST", "/join", req); !bytes.Equal(again.Body.Bytes(), body) {
			t.Errorf("%+v: a second request on epoch %d got different bytes", req, want.Epoch)
		}
	}
}
