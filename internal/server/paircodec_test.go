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
// (epoch, count, retries, pairs) the encoder's bytes are json.Encoder's, and
// the fast decoder reads them back without falling back; (ii) for any bytes
// the decoder agrees with json.Unmarshal.
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
	} {
		f.Add([]byte(seed), uint64(0), 0, 0)
	}
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 128}, uint64(9), 2, 1)
	f.Add([]byte{}, uint64(1<<63), -5, -1)

	f.Fuzz(func(t *testing.T, data []byte, epoch uint64, count, retries int) {
		checkDecodeMatchesJSON(t, data)

		var pairs []join.Pair
		for b := data; len(b) >= 8; b = b[8:] {
			pairs = append(pairs, join.Pair{
				R: int32(binary.LittleEndian.Uint32(b[:4])),
				S: int32(binary.LittleEndian.Uint32(b[4:8])),
			})
		}
		wire := JoinResponseWire{Epoch: epoch, Count: count, Retries: retries, Pairs: wirePairs(pairs)}
		got := appendJoinResponse(nil, epoch, count, retries, pairs)
		if want := referenceEncode(t, wire); !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote %q, encoding/json %q", got, want)
		}
		var back JoinResponseWire
		if !decodeJoinResponseFast(got, &back) {
			t.Fatalf("fast path refused the encoder's own output %q", got)
		}
		if !reflect.DeepEqual(back, wire) {
			t.Fatalf("round trip: %#v, want %#v", back, wire)
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

// TestJoinResponseBytesAreEncodingJSONs pins byte identity with the parent's
// handler on fixed responses, with and without retries and pairs.
func TestJoinResponseBytesAreEncodingJSONs(t *testing.T) {
	for _, wire := range []JoinResponseWire{
		{},
		{Epoch: 3, Count: 0},
		{Epoch: 3, Count: 2, Pairs: [][2]int32{{1, 1000000}, {-7, 5}}},
		{Epoch: 4, Count: 1, Retries: 2, Pairs: [][2]int32{{0, 0}}},
		{Epoch: 5, Count: 120, Retries: 1},
	} {
		var pairs []join.Pair
		for _, p := range wire.Pairs {
			pairs = append(pairs, join.Pair{R: p[0], S: p[1]})
		}
		got := appendJoinResponse(nil, wire.Epoch, wire.Count, wire.Retries, pairs)
		if want := referenceEncode(t, wire); !bytes.Equal(got, want) {
			t.Errorf("%+v: wrote %q, want %q", wire, got, want)
		}
	}
}

// TestHandlerJoinBodyIsCanonical drives the real handler: its /join body
// must be exactly what encoding/json writes for the value it carries, must
// declare its length, and must go through the decoder's fast path — a
// fallback here would mean the router pays reflection on every request.
func TestHandlerJoinBodyIsCanonical(t *testing.T) {
	fx := newFixture(t, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	for _, req := range []JoinRequestWire{{}, {Workers: 3}, {DiscardPairs: true}, {Predicate: "knn:2"}} {
		w := doHTTP(t, h, "POST", "/join", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%+v: %d %s", req, w.Code, w.Body)
		}
		body := w.Body.Bytes()
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
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
	}
}
