package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/zorder"
)

// splitByShard is the routing an update batch gets, done on the test side:
// each op to the range holding its centre key, in the batch's order.
func splitByShard(ops []server.OpWire, ranges []zorder.KeyRange) [][]server.OpWire {
	parts := make([][]server.OpWire, len(ranges))
	for _, op := range ops {
		key := zorder.HilbertKey(op.Rect().Center(), server.UnitWorld)
		for i, r := range ranges {
			if r.Contains(key) {
				parts[i] = append(parts[i], op)
			}
		}
	}
	return parts
}

// TestGatewayUpdateStagesEveryShardAtOnce: the gateway posts every shard
// its part of an update at once, so a shard that refuses its part does not
// keep the others from staging theirs.  The refusing shard here is a real
// one started with the other half of the key space, which answers 400 to
// every op the router homes on it.  Router.Update returns the ops the other
// shard staged and a *PartialError naming the failed and the succeeded
// shard, and the gateway's 502 carries the same names and the staged count.
// The first shard failing is the case that posting the parts one after the
// other, in shard order, got wrong: it never posted the second part.  The
// test posts the batch twice (once through Router.Update, once through the
// gateway) and checks only the replies of the second: the update is
// at-least-staged, so the accepting shard then holds its part twice.
func TestGatewayUpdateStagesEveryShardAtOnce(t *testing.T) {
	ops := genROps(400, 21)
	sItems := genSItems(200, 5)
	ranges := zorder.UniformKeyRanges(2)
	parts := splitByShard(ops, ranges)
	body, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	for failing := range ranges {
		ok := 1 - failing
		t.Run(fmt.Sprintf("shard%d refuses", failing), func(t *testing.T) {
			fixtures := make([]*shardFixture, len(ranges))
			shards := make([]Shard, len(ranges))
			for i := range ranges {
				served := ranges[i]
				if i == failing {
					served = ranges[ok]
				}
				name := fmt.Sprintf("shard%d", i)
				fixtures[i] = newShardServer(t, name, served, sItems)
				shards[i] = Shard{Name: name, URL: fixtures[i].url, Range: ranges[i]}
			}
			rt, err := New(Config{Shards: shards, RetryAttempts: 1})
			if err != nil {
				t.Fatal(err)
			}
			staged, err := rt.Update(context.Background(), ops)
			var perr *PartialError
			var se *StatusError
			if !errors.As(err, &perr) || !errors.As(perr.Failures[0], &se) || se.Code != http.StatusBadRequest ||
				len(perr.Failures) != 1 || perr.Failures[0].Shard != shards[failing].Name ||
				!slices.Equal(perr.Succeeded, []string{shards[ok].Name}) {
				t.Fatalf("Update = %d, %v; want a *PartialError naming %s failed with a 400 and %s succeeded",
					staged, err, shards[failing].Name, shards[ok].Name)
			}
			if staged != len(parts[ok]) || fixtures[ok].srv.Pending() != len(parts[ok]) || fixtures[failing].srv.Pending() != 0 {
				t.Fatalf("Update staged %d; shards pending %d (refused) and %d; want the %d ops of the accepting shard",
					staged, fixtures[failing].srv.Pending(), fixtures[ok].srv.Pending(), len(parts[ok]))
			}

			w := postJSON(NewHandler(rt), "/update", string(body))
			var reply struct {
				Error     string   `json:"error"`
				Failed    []string `json:"failed"`
				Succeeded []string `json:"succeeded"`
				Staged    int      `json:"staged"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || w.Code != http.StatusBadGateway ||
				!slices.Equal(reply.Failed, []string{shards[failing].Name}) || !slices.Equal(reply.Succeeded, []string{shards[ok].Name}) ||
				reply.Staged != len(parts[ok]) {
				t.Fatalf("gateway POST /update: %d %s; want 502 naming the shards, %d staged", w.Code, w.Body, len(parts[ok]))
			}
		})
	}
}

// TestGatewayUpdateAfterAStageIsNever503: when one shard sheds its part of
// an update and the other stages its own, the gateway answers 502 with the
// staged count and no Retry-After.  A 503 with Retry-After would ask the
// client to resend the batch, and the resend would stage the accepted part
// a second time.  With nothing staged, a shed stays the 503 a client may
// retry.
func TestGatewayUpdateAfterAStageIsNever503(t *testing.T) {
	ops := genROps(400, 27)
	ranges := zorder.UniformKeyRanges(2)
	parts := splitByShard(ops, ranges)
	body, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
	}
	for _, tc := range []struct {
		name       string
		real       bool // shard0 is a real shard rather than a shedding one
		code       int
		retryAfter string
		staged     int
	}{
		{"one shard staged", true, http.StatusBadGateway, "", len(parts[0])},
		{"nothing staged", false, http.StatusServiceUnavailable, "2", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := []Shard{stubShard(t, http.HandlerFunc(shed)), stubShard(t, http.HandlerFunc(shed))}
			if tc.real {
				shards[0].URL = newShardServer(t, "shard0", ranges[0], genSItems(200, 5)).url
			}
			for i := range shards {
				shards[i].Name, shards[i].Range = fmt.Sprintf("shard%d", i), ranges[i]
			}
			rt, err := New(Config{Shards: shards, RetryAttempts: 1})
			if err != nil {
				t.Fatal(err)
			}
			w := postJSON(NewHandler(rt), "/update", string(body))
			var reply struct {
				Failed []string `json:"failed"`
				Staged int      `json:"staged"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || w.Code != tc.code ||
				w.Header().Get("Retry-After") != tc.retryAfter || reply.Staged != tc.staged ||
				!slices.Contains(reply.Failed, "shard1") {
				t.Fatalf("gateway POST /update: %d, Retry-After %q, %s; want %d, Retry-After %q, %d staged, shard1 failed",
					w.Code, w.Header().Get("Retry-After"), w.Body, tc.code, tc.retryAfter, tc.staged)
			}
		})
	}
}

// pagerPages reads every live page of a pager, keyed by identifier.
func pagerPages(t *testing.T, p *storage.Pager) map[storage.PageID][]byte {
	t.Helper()
	pages := make(map[storage.PageID][]byte, p.Len())
	for id := storage.PageID(0); len(pages) < p.Len(); id++ {
		if id > 1<<20 {
			t.Fatalf("found %d of %d live pages below page %d", len(pages), p.Len(), id)
		}
		b, err := p.Read(id, nil)
		switch {
		case errors.Is(err, storage.ErrUnknownPage):
		case err != nil:
			t.Fatalf("page %d: %v", id, err)
		default:
			pages[id] = b
		}
	}
	return pages
}

// TestGatewayUpdateBuildsTheDirectTrees: what the gateway stages on a shard
// is what Server.Update stages given the shard's part of each batch, in the
// client's order.  After the same batches — inserts, then deletes of some
// of them beside fresh inserts — and one round, every shard's pages and
// root are byte-identical to those of a server fed its parts directly.
func TestGatewayUpdateBuildsTheDirectTrees(t *testing.T) {
	rt, fixtures := newDeployment(t, 2, nil)
	ranges := zorder.UniformKeyRanges(2)
	sItems := genSItems(200, 5)
	direct := make([]*shardFixture, len(ranges))
	for i := range direct {
		direct[i] = newShardServer(t, fmt.Sprintf("direct%d", i), ranges[i], sItems)
	}
	ops := genROps(900, 23)
	var batches [][]server.OpWire
	for i := 0; i < 600; i += 200 {
		batches = append(batches, ops[i:i+200])
	}
	last := slices.Clone(ops[600:])
	for i := 0; i < 300; i += 3 {
		last[i] = ops[i]
		last[i].Delete = true
	}
	batches = append(batches, last)

	h := NewHandler(rt)
	for _, batch := range batches {
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		if w := postJSON(h, "/update", string(body)); w.Code != http.StatusAccepted {
			t.Fatalf("gateway POST /update: %d %s", w.Code, w.Body)
		}
		for i, part := range splitByShard(batch, ranges) {
			if err := direct[i].srv.Update(wireOps(part)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w := postJSON(h, "/round", ""); w.Code != http.StatusOK {
		t.Fatalf("gateway POST /round: %d %s", w.Code, w.Body)
	}
	for i, fx := range direct {
		if _, err := fx.srv.Round(); err != nil {
			t.Fatal(err)
		}
		got, want := fixtures[i].pager(), fx.pager()
		if got.Root() != want.Root() {
			t.Fatalf("shard %d: root page %d, direct %d", i, got.Root(), want.Root())
		}
		gotPages, wantPages := pagerPages(t, got), pagerPages(t, want)
		if len(gotPages) != len(wantPages) {
			t.Fatalf("shard %d: %d live pages, direct %d", i, len(gotPages), len(wantPages))
		}
		for id, b := range wantPages {
			if !bytes.Equal(gotPages[id], b) {
				t.Fatalf("shard %d: page %d differs from the direct server's", i, id)
			}
		}
		if fx.srv.Coverage().RItems == 0 {
			t.Fatalf("shard %d holds no items", i)
		}
	}
}

// wireOps converts wire ops to the server's.
func wireOps(ops []server.OpWire) []server.Op {
	out := make([]server.Op, len(ops))
	for i, op := range ops {
		out[i] = server.Op{Rect: op.Rect(), Data: op.Data, Delete: op.Delete}
	}
	return out
}

// BenchmarkGatewayUpdate posts one 1 000-op /update body to the gateway per
// op, over two in-process shards: decoding it, routing and encoding the two
// parts, and both shards decoding and staging theirs.  Iterations alternate
// the body's inserts and their deletes, and a round every 256 of them (not
// timed) keeps the shards' staged backlogs under their cap.
func BenchmarkGatewayUpdate(b *testing.B) {
	rt, _ := newDeployment(b, 2, func(c *Config) { c.ShardTimeout = time.Minute })
	h := NewHandler(rt)
	ops := genROps(1000, 25)
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
			if err := rt.Round(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
