package httpsrc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rewire/internal/graph"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// testGraph is a small connected graph.
func testGraph() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := int32(0); i < 10; i++ {
		b.AddEdge(i, (i+1)%10)
		b.AddEdge(i, (i+3)%10)
	}
	return b.Build()
}

// fastOptions keeps the per-attempt deadline test-sized.
func fastOptions(baseURL string) Options {
	return Options{BaseURL: baseURL, RequestTimeout: 2 * time.Second}
}

func mustFetch(t *testing.T, b *Backend, ids ...graph.NodeID) [][]graph.NodeID {
	t.Helper()
	lists, err := b.Fetch(context.Background(), ids)
	if err != nil {
		t.Fatalf("Fetch(%v): %v", ids, err)
	}
	if len(lists) != len(ids) {
		t.Fatalf("Fetch(%v) returned %d lists", ids, len(lists))
	}
	return lists
}

func TestFetchAgainstReferenceServer(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(Handler(g, ServerOptions{}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	lists := mustFetch(t, b, 0, 5, 9)
	for i, want := range []graph.NodeID{0, 5, 9} {
		exp := g.Neighbors(want)
		if len(lists[i]) != len(exp) {
			t.Fatalf("user %d: %d neighbors, want %d", want, len(lists[i]), len(exp))
		}
		for j := range exp {
			if lists[i][j] != exp[j] {
				t.Fatalf("user %d neighbor %d = %d, want %d", want, j, lists[i][j], exp[j])
			}
		}
	}
	if n, err := b.Meta(context.Background()); err != nil || n != g.NumNodes() {
		t.Fatalf("Meta = %d, %v; want %d", n, err, g.NumNodes())
	}
	if n := b.NumUsers(); n != g.NumNodes() {
		t.Fatalf("NumUsers = %d, want %d", n, g.NumNodes())
	}
	if _, err := b.Fetch(context.Background(), []graph.NodeID{3, 42}); !errors.Is(err, osn.ErrNoSuchUser) {
		t.Fatalf("unknown id error = %v, want ErrNoSuchUser", err)
	}
	if _, err := b.Fetch(context.Background(), []graph.NodeID{-1}); !errors.Is(err, osn.ErrNoSuchUser) {
		t.Fatalf("negative id error = %v, want ErrNoSuchUser", err)
	}
}

func TestWrongAnswerIsProtocolError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"results": [{"id": 3, "neighbors": [1]}]}`)) // asked for 0
	}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Fetch(context.Background(), []graph.NodeID{0})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
}

// TestMeta404IsNotNoSuchUser pins that a 404 outside /neighbors — a
// mistyped base path, a server without /meta — reports a status error, not
// a bogus "no such user".
func TestMeta404IsNotNoSuchUser(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	b, err := New(fastOptions(srv.URL + "/wrongpath"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Meta(context.Background())
	if errors.Is(err, osn.ErrNoSuchUser) {
		t.Fatalf("meta 404 reported as ErrNoSuchUser: %v", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
}

// TestConcurrentWalkersOverHTTP is the -race hammer: a fleet of SRW walkers
// sharing one osn.Client over the HTTP backend, so the full stack — sharded
// cache, per-user singleflight, demand billing, HTTP connection pool — runs
// under contention. The unique-query bill must equal the client's cache size
// and every walker must finish its quota.
func TestConcurrentWalkersOverHTTP(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(Handler(g, ServerOptions{Latency: 200 * time.Microsecond}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	client := osn.NewClient(b)
	const k, steps = 8, 200
	r := rng.New(7)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		w := walk.NewSimple(client, graph.NodeID(i), r.Split())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				w.Step()
			}
		}()
	}
	wg.Wait()
	if got, want := client.UniqueQueries(), int64(client.CacheSize()); got != want {
		t.Fatalf("unique queries %d != cache size %d (no prefetching ran)", got, want)
	}
	if client.UniqueQueries() > int64(g.NumNodes()) {
		t.Fatalf("billed %d unique queries over a %d-user graph", client.UniqueQueries(), g.NumNodes())
	}
}

// TestFetchPartialIsolatesUnknownID: over the batch POST protocol, one bad
// id is a per-id error entry; co-batched ids still resolve.
func TestFetchPartialIsolatesUnknownID(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(Handler(g, ServerOptions{}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	lists, errs, err := b.FetchPartial(context.Background(), []graph.NodeID{0, 42, 5})
	if err != nil {
		t.Fatalf("FetchPartial: %v", err)
	}
	if errs == nil || !errors.Is(errs[1], osn.ErrNoSuchUser) {
		t.Fatalf("errs[1] = %v, want ErrNoSuchUser", errs)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good ids got errors: %v", errs)
	}
	for _, i := range []int{0, 2} {
		want := g.Neighbors([]graph.NodeID{0, 42, 5}[i])
		if len(lists[i]) != len(want) {
			t.Fatalf("lists[%d] has %d neighbors, want %d", i, len(lists[i]), len(want))
		}
	}
	if st := b.Stats(); st.BatchPosts == 0 || st.Gets != 0 {
		t.Fatalf("stats = %+v, want the batch POST protocol in use", st)
	}
}

// TestFetchPartialGETFallback: a provider without the batch route (404 on
// POST) degrades to GETs — once — and still isolates the guilty id via the
// 404 body's id field.
func TestFetchPartialGETFallback(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(Handler(g, ServerOptions{DisableBatch: true}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	lists, errs, err := b.FetchPartial(context.Background(), []graph.NodeID{0, 42, 5})
	if err != nil {
		t.Fatalf("FetchPartial: %v", err)
	}
	if errs == nil || !errors.Is(errs[1], osn.ErrNoSuchUser) {
		t.Fatalf("errs[1] = %v, want ErrNoSuchUser", errs)
	}
	if lists[0] == nil || lists[2] == nil {
		t.Fatal("good ids unresolved after guilty-id isolation")
	}
	st := b.Stats()
	if st.BatchFallbacks != 1 {
		t.Fatalf("stats = %+v, want exactly one fallback probe", st)
	}
	// The probe result is remembered: further fetches go straight to GET.
	if _, _, err := b.FetchPartial(context.Background(), []graph.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if st2 := b.Stats(); st2.BatchPosts != st.BatchPosts {
		t.Fatalf("batch POST retried after a remembered fallback: %+v -> %+v", st, st2)
	}
}

// TestWholeBatch404NoLongerPoisons: on the GET path a whole-batch 404 still
// isolates the guilty id — Fetch answers the other ids alongside an
// *osn.IDErrors, and FetchPartial splits the same result out.
func TestWholeBatch404NoLongerPoisons(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(Handler(g, ServerOptions{DisableBatch: true}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Fetch(context.Background(), []graph.NodeID{3, 42})
	var ie *osn.IDErrors
	if !errors.As(err, &ie) || !errors.Is(err, osn.ErrNoSuchUser) || ie.Errs[0] != nil || got[0] == nil {
		t.Fatalf("Fetch = (%v, %v), want id 3 answered and id 42 in an IDErrors", got, err)
	}
	lists, errs, err := b.FetchPartial(context.Background(), []graph.NodeID{3, 42})
	if err != nil || !errors.Is(errs[1], osn.ErrNoSuchUser) || lists[0] == nil {
		t.Fatalf("partial GET = (%v, %v, %v), want id 3 answered and id 42 isolated", lists, errs, err)
	}
}

// TestETagRevalidation: a repeated request revalidates with If-None-Match
// and serves the cached answer on 304 — on both the POST and GET protocols.
func TestETagRevalidation(t *testing.T) {
	for _, mode := range []struct {
		name         string
		disableBatch bool
	}{{"post", false}, {"get", true}} {
		t.Run(mode.name, func(t *testing.T) {
			g := testGraph()
			srv := httptest.NewServer(Handler(g, ServerOptions{DisableBatch: mode.disableBatch}))
			defer srv.Close()
			b, err := New(fastOptions(srv.URL))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			first := mustFetch(t, b, 2, 4)
			again := mustFetch(t, b, 2, 4)
			for i := range first {
				if len(first[i]) != len(again[i]) {
					t.Fatalf("revalidated answer diverged: %v vs %v", first[i], again[i])
				}
				for j := range first[i] {
					if first[i][j] != again[i][j] {
						t.Fatalf("revalidated answer diverged: %v vs %v", first[i], again[i])
					}
				}
			}
			if st := b.Stats(); st.Revalidated != 1 {
				t.Fatalf("stats = %+v, want exactly one 304 revalidation", st)
			}
			// Cached lists must not alias what earlier callers own.
			for i := range again[0] {
				again[0][i] = -99
			}
			third := mustFetch(t, b, 2, 4)
			for j, v := range third[0] {
				if v != first[0][j] {
					t.Fatal("caller mutation leaked into the revalidation cache")
				}
			}
		})
	}
}

// TestSerializedServerAdmitsOneAtATime: the bench discriminator — under
// Serialize, wall-clock grows with the request count whatever the client
// parallelism.
func TestSerializedServerAdmitsOneAtATime(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(Handler(g, ServerOptions{Serialize: true, Latency: 5 * time.Millisecond}))
	defer srv.Close()
	b, err := New(fastOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const reqs = 4
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(v graph.NodeID) {
			defer wg.Done()
			if _, err := b.Fetch(context.Background(), []graph.NodeID{v}); err != nil {
				t.Error(err)
			}
		}(graph.NodeID(i))
	}
	wg.Wait()
	if el := time.Since(start); el < reqs*5*time.Millisecond {
		t.Fatalf("4 parallel requests finished in %v — serialization not enforced", el)
	}
}

// A quota without a positive window would restart the window on every
// request and answer them all, so Handler refuses it.
func TestHandlerPanicsOnQuotaWithoutWindow(t *testing.T) {
	for _, w := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window %v: Handler accepted QueriesPerWindow 1", w)
				}
			}()
			Handler(testGraph(), ServerOptions{QueriesPerWindow: 1, Window: w})
		}()
	}
}

// TestMissingNeighborListIsProtocolError: a result without a neighbor list,
// or with a null one, is off-protocol in both forms, not an isolated user.
// Only a batch entry that reports "no such user" may lack one.
func TestMissingNeighborListIsProtocolError(t *testing.T) {
	ids := []graph.NodeID{0, 7}
	for _, body := range []string{
		`{"results":[{"id":0},{"id":7,"neighbors":[1]}]}`,
		`{"results":[{"id":0,"neighbors":[2]},{"id":7,"neighbors":null}]}`,
		`{"results":[{"id":0,"neighbors":[2]},{"id":7,"neighbors":[1],"neighbors":null}]}`,
		`{"results":[{"id":0,"neighbors":[2]},{"id":7,"error":""}]}`,
	} {
		var pe *ProtocolError
		if lists, _, err := decodeBatch([]byte(body), ids); !errors.As(err, &pe) {
			t.Errorf("decodeBatch(%s) = %v, %v; want a ProtocolError", body, lists, err)
		}
		if lists, err := decodeNeighbors([]byte(body), ids); !errors.As(err, &pe) {
			t.Errorf("decodeNeighbors(%s) = %v, %v; want a ProtocolError", body, lists, err)
		}
	}
	lists, errs, err := decodeBatch([]byte(`{"results":[{"id":0,"neighbors":[]},{"id":7,"error":"no such user"}]}`), ids)
	if err != nil || lists[0] == nil || len(lists[0]) != 0 || !errors.Is(errs[1], osn.ErrNoSuchUser) {
		t.Fatalf("decodeBatch = %v, %v, %v; want an empty list and a no-such-user entry", lists, errs, err)
	}
}

// TestDecodeMatchesReference pins the hand decoders to the encoding/json
// reference on bodies that reach each rule of the grammar: whitespace, key
// order, escapes, unknown values, integer limits, null, repeated keys and
// the nesting limit.
func TestDecodeMatchesReference(t *testing.T) {
	// nest puts an unknown value whose innermost array, or object, sits
	// depth containers deep.
	nest := func(depth int, objects bool) string {
		inner := strings.Repeat("[", depth-3) + strings.Repeat("]", depth-3)
		if objects {
			inner = strings.Repeat(`{"a":`, depth-4) + "{}" + strings.Repeat("}", depth-4)
		}
		return `{"results":[{"id":0,"neighbors":[1],"x":` + inner + `}]}`
	}
	for _, body := range []string{
		"\t{\r\n\"results\" :[ {\"neighbors\" : [ 1 , 2 ] , \"id\" : 0 } ] }\n",
		`{"results":[{"id":0,"neighbors":[1],"junk":{"a":[true,false,null,"s",-0.5e-7,{}],"b":""}}],"more":1E+2}`,
		`{"results":[{"id":0,"neighbors":[-0],"error":"no such user"}]}`,
		`{"results":[{"id":0,"neighbors":[1],"error":"no such user\u0000"}]}`,
		`{"results":[{"id":0,"neighbors":[1],"error":"\ud800"}]}`,
		`{"results":[{"id":0,"neighbors":[1],"error":"\/"}]}`,
		`{"results":[{"id":0,"neighbors":[1],"error":"\x"}]}`,
		`{"results":[{"id":0,"neighbors":[1],"error":"` + "\x01" + `"}]}`,
		`{"results":[{"id":0,"neighbors":[1],"error":"` + "\xff" + `"}]}`,
		`{"results":[{"id":0,"neighbors":[2147483647,-2147483648]}]}`,
		`{"results":[{"id":0,"neighbors":[-2147483649]}]}`,
		`{"results":[{"id":0,"neighbors":[99999999999999999999]}]}`,
		`{"results":[{"id":0,"neighbors":[1e0]}]}`,
		`{"results":[{"id":0,"neighbors":[1.]}]}`,
		`{"results":[{"id":0,"neighbors":[-]}]}`,
		`{"results":[{"id":0,"neighbors":[1,]}]}`,
		`{"results":[{"id":0,"neighbors":[,1]}]}`,
		`{"results":[{"id":0,"neighbors":[1] ,}]}`,
		`{"results":[{"id":0,"neighbors":["1"]}]}`,
		`{"results":[{"id":0,"neighbors":{}}]}`,
		`{"results":[{"id":"0","neighbors":[1]}]}`,
		`{"results":[{"id":null,"neighbors":[1]}]}`,
		`{"results":[{"id":5,"id":null,"neighbors":[1]}]}`,
		`{"results":[{"id":0,"neighbors":[1,2,3],"neighbors":[null,null]}]}`,
		`{"results":[{"id":0,"neighbors":[1,2,3],"neighbors":[4],"neighbors":[null,null,null,null]}]}`,
		`{"results":[{"id":0,"neighbors":[1,2],"neighbors":[],"neighbors":[null]}]}`,
		`{"results":[{"id":0,"neighbors":[1,2],"neighbors":null,"neighbors":[null]}]}`,
		`{"results":[{"id":0,"neighbors":[1]}],"results":[null]}`,
		`{"results":[{"id":0,"neighbors":[1]}],"results":[]}`,
		`{"results":[{"id":0,"neighbors":[1]},{"id":9,"neighbors":[7,8]}],"results":[{"id":0}],"results":[{},{"neighbors":[null,null,null]}]}`,
		`{"results":[{"id":0,"neighbors":[1]}],"results":null}`,
		`{"results":[null]}`,
		`{"results":[1]}`,
		`{"results":{}}`,
		`{"results":[{"id":0,"neighbors":[1]}]} x`,
		`{"results":[{"id":0,"neighbors":[1]}]}{}`,
		`{"results":[{"id":0,"neighbors":[1]}],}`,
		`{"results":[{"id":0,"neighbors":[1]}] "a":1}`,
		`{"results":[{"id":0 "neighbors":[1]}]}`,
		`{"results"[{"id":0,"neighbors":[1]}]}`,
		`{results:[{"id":0,"neighbors":[1]}]}`,
		`[{"id":0,"neighbors":[1]}]`,
		`{"a":tru}`,
		`{"a":01}`,
		`{"a":1.e5}`,
		`{"a":-.5}`,
		"\ufeff{}",
		nest(maxDepth, false),
		nest(maxDepth+1, false),
		nest(maxDepth, true),
		nest(maxDepth+1, true),
	} {
		for _, ids := range [][]graph.NodeID{{0}, {0, 9}} {
			lists, errs, err := decodeBatch([]byte(body), ids)
			rlists, rerrs, rerr := refDecodeBatch([]byte(body), ids)
			sameDecode(t, "decodeBatch", []byte(body), lists, rlists, errs, rerrs, err, rerr)
			nlists, nerr := decodeNeighbors([]byte(body), ids)
			rnlists, rnerr := refDecodeNeighbors([]byte(body), ids)
			sameDecode(t, "decodeNeighbors", []byte(body), nlists, rnlists, nil, nil, nerr, rnerr)
		}
	}
}

// TestResultsEncodingMatchesMarshal: the GET route's 200 answer is byte for
// byte json.Marshal's, so ETags did not change with the encoder.
func TestResultsEncodingMatchesMarshal(t *testing.T) {
	g := testGraph()
	rec := httptest.NewRecorder()
	Handler(g, ServerOptions{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/neighbors?ids=3,0,9,3", nil))
	var want neighborsResponse
	for _, v := range []graph.NodeID{3, 0, 9, 3} {
		want.Results = append(want.Results, struct {
			ID        graph.NodeID   `json:"id"`
			Neighbors []graph.NodeID `json:"neighbors"`
		}{v, g.Neighbors(v)})
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Body.String() != string(body)+"\n" {
		t.Fatalf("GET answer %d %q, want 200 %q", rec.Code, rec.Body, body)
	}
}
