package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// updateBodyOps draws n inserts in the shape of the ledger's ingest: small
// rectangles in the unit square, numbered from base.
func updateBodyOps(n int, base int32, seed int64) []OpWire {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]OpWire, n)
	for i := range ops {
		x, y := rng.Float64()*0.99, rng.Float64()*0.99
		ops[i] = OpWire{XL: x, YL: y, XU: x + rng.Float64()*0.01, YU: y + rng.Float64()*0.01, Data: base + int32(i)}
	}
	return ops
}

// strictDecode is encoding/json's reading of an /update body at its
// strictest: one JSON value and nothing after it, no unknown field.
func strictDecode(b []byte) ([]OpWire, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var ops []OpWire
	if err := dec.Decode(&ops); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	return ops, nil
}

// sameOps compares two op lists bit for bit: -0 is not 0.
func sameOps(a, b []OpWire) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.XL) != math.Float64bits(y.XL) || math.Float64bits(x.YL) != math.Float64bits(y.YL) ||
			math.Float64bits(x.XU) != math.Float64bits(y.XU) || math.Float64bits(x.YU) != math.Float64bits(y.YU) ||
			x.Data != y.Data || x.Delete != y.Delete {
			return false
		}
	}
	return true
}

// TestDecodeOpsGrammar pins what DecodeOps accepts and the error it gives
// for each way a body breaks the grammar: the error names the key or the
// byte offset.  The rows marked narrowed are bodies encoding/json decodes
// (a null corner as 0, a key in another case, the last of two duplicates,
// an escaped key, the first value of a body with more after it, a null
// body as no ops).
func TestDecodeOpsGrammar(t *testing.T) {
	const op = `{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}`
	want := OpWire{XL: 0.1, YL: 0.2, XU: 0.3, YU: 0.4, Data: 7}
	for _, tc := range []struct {
		body     string
		ops      []OpWire
		err      string // a substring of the error; "" when the body is accepted
		narrowed bool   // encoding/json decodes the body's first value
	}{
		{body: `[]`, ops: []OpWire{}},
		{body: " \t\r\n[ \n] \n", ops: []OpWire{}},
		{body: `[` + op + `]`, ops: []OpWire{want}},
		{body: `[` + op + `,` + op + `]`, ops: []OpWire{want, want}},
		{body: "[ {\n\"data\" : 7 , \"yu\":0.4,\"xu\":0.3,\"yl\":0.2,\"xl\":0.1 } ]", ops: []OpWire{want}},
		{body: `[{"xl":-0,"yl":1E+2,"xu":1e-400,"yu":5e-324,"data":-2147483648,"delete":true}]`,
			ops: []OpWire{{XL: math.Copysign(0, -1), YL: 100, XU: 0, YU: 5e-324, Data: math.MinInt32, Delete: true}}},
		{body: `[{"xl":0,"yl":0,"xu":0,"yu":0,"data":2147483647,"delete":false}]`, ops: []OpWire{{Data: math.MaxInt32}}},

		{body: ``, err: "byte 0: want the '['"},
		{body: `null`, err: "byte 0: want the '['", narrowed: true},
		{body: `{}`, err: "byte 0: want the '['"},
		{body: `[` + op, err: "want ',' or ']'"},
		{body: `[` + op + `,]`, err: "op 1: want the '{'"},
		{body: `[` + op + `] [{"xl":0.9}]`, err: "byte 49: data after the array", narrowed: true},
		{body: `[` + op + `]x`, err: "data after the array", narrowed: true},
		{body: `[{"xl":null,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `op 0: "null" is not a number`, narrowed: true},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":null}]`, err: `"null" is not an integer`, narrowed: true},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7,"delete":null}]`, err: `"null" is not a bool`, narrowed: true},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"data":7}]`, err: `op 0: missing key "yu"`, narrowed: true},
		{body: `[{}]`, err: `missing key "xl"`, narrowed: true},
		{body: `[{"XL":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `unknown field "XL"`, narrowed: true},
		{body: `[{"xl":0.1,"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `duplicate key "xl"`, narrowed: true},
		{body: `[{"x\u006c":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: "byte 4: op 0: key spelt with an escape", narrowed: true},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7,"world":1}]`, err: `unknown field "world"`},
		{body: `[{"xl":+1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `"+1" is not a number`},
		{body: `[{"xl":inf,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `"inf" is not a number`},
		{body: `[{"xl":NaN,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `"NaN" is not a number`},
		{body: `[{"xl":0x1p-2,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: "want ',' or '}'"},
		{body: `[{"xl":01,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: "want ',' or '}'"},
		{body: `[{"xl":.5,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `".5" is not a number`},
		{body: `[{"xl":1.,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `"1." is not a number`},
		{body: `[{"xl":1e,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `"1e" is not a number`},
		{body: `[{"xl":"0.1","yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `"\"0.1\"" is not a number`},
		{body: `[{"xl":1e400,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`, err: `number "1e400" is out of float64 range`},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":2147483648}]`, err: `data "2147483648" is out of int32 range`},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7.0}]`, err: `"7.0" is not an integer`},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":1e2}]`, err: `"1e2" is not an integer`},
		{body: `[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7,"delete":1}]`, err: `"1" is not a bool`},
		{body: `[{"xl" 0.1}]`, err: `want ':' after key "xl"`},
		{body: `[{xl:0.1}]`, err: "want a quoted key"},
		{body: `[{"xl`, err: "unterminated key"},
		{body: `[{"xl":`, err: "the end of the body is not a number"},
	} {
		ops, err := DecodeOps([]byte(tc.body))
		if tc.err == "" {
			if err != nil || !sameOps(ops, tc.ops) {
				t.Errorf("DecodeOps(%s) = %v, %v; want %v", tc.body, ops, err, tc.ops)
			}
			if ref, jerr := strictDecode([]byte(tc.body)); jerr != nil || !sameOps(ref, tc.ops) {
				t.Errorf("%s: encoding/json decodes %v, %v", tc.body, ref, jerr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("DecodeOps(%s) = %v, %v; want an error containing %q", tc.body, ops, err, tc.err)
		}
		if _, ok := err.(*OpsSyntaxError); !ok {
			t.Errorf("DecodeOps(%s): error %T, want *OpsSyntaxError", tc.body, err)
		}
		// The handlers decoded the body's first value with encoding/json
		// before DecodeOps.
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.DisallowUnknownFields()
		var ops0 []OpWire
		if jerr := dec.Decode(&ops0); (jerr == nil) != tc.narrowed {
			t.Errorf("%s: encoding/json error %v, narrowed %v", tc.body, jerr, tc.narrowed)
		}
	}
}

// TestDecodeOpsAllocatesOnce: decoding a ledger-sized body allocates the
// result and nothing else.
func TestDecodeOpsAllocatesOnce(t *testing.T) {
	body, err := json.Marshal(updateBodyOps(1000, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeOps(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("DecodeOps of a 1 000-op body: %.0f allocations, want 1", allocs)
	}
}

// TestDecodeOpsBoundsAFloodOfBraces: a body of '[' and then nothing but
// '{' holds a '{' per byte but not one op.  DecodeOps refuses it at op 0
// having allocated about the body's length, not the 40 bytes of an OpWire
// for every '{'.
func TestDecodeOpsBoundsAFloodOfBraces(t *testing.T) {
	body := append([]byte{'['}, bytes.Repeat([]byte{'{'}, 1<<20)...)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := DecodeOps(body); err == nil {
			t.Fatal("DecodeOps accepted a flood of '{'")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 2*uint64(len(body)) {
		t.Fatalf("DecodeOps of a %d-byte flood of '{' allocated %d bytes, want at most twice the body", len(body), perRun)
	}
}

// TestAppendOpsIsJSONMarshal: AppendOps writes json.Marshal's bytes, for
// the numbers whose formatting is easy to get wrong too, and DecodeOps
// reads them back bit for bit.
func TestAppendOpsIsJSONMarshal(t *testing.T) {
	ops := updateBodyOps(200, -100, 4)
	for i, v := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1.5e-300, 5e-324, 1e20, 1e21, -1e21, 123456789e13,
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 1, -2.5, 1e-10, 3e100} {
		ops[i].XL, ops[i+1].YU = v, -v
		ops[i].Delete = i%2 == 0
	}
	ops[0].Data, ops[1].Data = math.MinInt32, math.MaxInt32
	want, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendOps(nil, ops)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendOps differs from json.Marshal:\n%s\n%s", got, want)
	}
	back, err := DecodeOps(got)
	if err != nil || !sameOps(back, ops) {
		t.Fatalf("DecodeOps(AppendOps(ops)) = %v, %v", back, err)
	}
	if got := AppendOps(nil, nil); string(got) != "[]" {
		t.Fatalf("AppendOps of no ops = %s", got)
	}
}

// FuzzDecodeOps holds DecodeOps to encoding/json from both sides.  Whenever
// DecodeOps accepts a body, encoding/json at its strictest accepts it too,
// with bit-identical ops.  And for json.Marshal's body of a fuzzed op with
// finite corners (and a copy of it, delete flipped), DecodeOps returns the
// ops bit for bit and AppendOps writes the same bytes.
func FuzzDecodeOps(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`null`,
		`[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`,
		`[{"xl":-0,"yl":1E+2,"xu":1e-400,"yu":5e-324,"data":-2147483648,"delete":true}]`,
		` [ { "data" : 1 , "yu" : 2 , "xu" : 3 , "yl" : 4 , "xl" : 5 , "delete" : false } ] `,
		`[{"xl":null,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`,
		`[{"XL":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`,
		`[{"xl":0.1,"xl":0.2,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`,
		`[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`,
		`[{"xl":1e400,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}]`,
		`[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7.0}]`,
		`[{"xl":0.1,"yl":0.2,"xu":0.3,"yu":0.4,"data":7}] []`,
	} {
		f.Add([]byte(seed), 0.1, 0.2, 0.3, 0.4, int32(7), false)
	}
	f.Add([]byte(`[`), math.Copysign(0, -1), 1e-7, 1e21, -math.MaxFloat64, int32(math.MinInt32), true)
	f.Fuzz(func(t *testing.T, body []byte, xl, yl, xu, yu float64, data int32, del bool) {
		if ops, err := DecodeOps(body); err == nil {
			ref, jerr := strictDecode(body)
			if jerr != nil {
				t.Fatalf("DecodeOps accepts %q, encoding/json refuses it: %v", body, jerr)
			}
			if !sameOps(ops, ref) {
				t.Fatalf("%q: DecodeOps %v, encoding/json %v", body, ops, ref)
			}
		}
		for _, v := range []float64{xl, yl, xu, yu} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		ops := []OpWire{{XL: xl, YL: yl, XU: xu, YU: yu, Data: data, Delete: del}, {XL: yu, YL: xu, XU: yl, YU: xl, Data: -data, Delete: !del}}
		want, err := json.Marshal(ops)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOps(want)
		if err != nil || !sameOps(got, ops) {
			t.Fatalf("DecodeOps(%s) = %v, %v; want %v", want, got, err, ops)
		}
		if enc := AppendOps(nil, ops); !bytes.Equal(enc, want) {
			t.Fatalf("AppendOps = %s, json.Marshal %s", enc, want)
		}
	})
}

// BenchmarkDecodeOps decodes one ledger-sized /update body: 1 000 ops,
// about 110 KB.
func BenchmarkDecodeOps(b *testing.B) {
	body, err := json.Marshal(updateBodyOps(1000, 0, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeOps(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateHandler posts one 1 000-op body to the shard's POST
// /update per op: reading and decoding it, checking and staging the ops.
// Iterations alternate the body's inserts and their deletes, and a round
// every 256 of them (not timed) keeps the staged backlog under its cap and
// the writer's tree at the fixture's size.
func BenchmarkUpdateHandler(b *testing.B) {
	fx := newFixture(b, Config{})
	h := NewHandler(fx.srv, HandlerConfig{})
	ops := updateBodyOps(1000, 10_000, 6)
	inserts, err := json.Marshal(ops)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ops {
		ops[i].Delete = true
	}
	deletes, err := json.Marshal(ops)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := inserts
		if i%2 == 1 {
			body = deletes
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			b.Fatalf("POST /update: %d %s", w.Code, w.Body)
		}
		if i%256 == 255 {
			b.StopTimer()
			if _, err := fx.srv.Round(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
