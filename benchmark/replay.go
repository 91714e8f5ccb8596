package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"rewire"
	"rewire/internal/core"
	"rewire/internal/durable"
	"rewire/internal/graph"
	"rewire/internal/httpsrc"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/serve"
	"rewire/internal/walk"
)

// replayIDs caps how many recorded nodes the replay phase feeds each layer.
const replayIDs = 4096

// recordedNodes returns the distinct nodes the traced pass's session.step
// spans stood on, in the order first seen.
func recordedNodes(tr *tracer) []rewire.NodeID {
	seen := make(map[rewire.NodeID]bool)
	var out []rewire.NodeID
	for _, s := range tr.spans("session.step") {
		v, ok := s.attr("node")
		if !ok || seen[rewire.NodeID(v)] {
			continue
		}
		seen[rewire.NodeID(v)] = true
		out = append(out, rewire.NodeID(v))
		if len(out) == replayIDs {
			break
		}
	}
	return out
}

// replay times isolated calls into each layer's exported functions, fed
// with the nodes the traced pass recorded and their neighbor lists. Each
// number is a per-call cost with nothing else running, which the span
// timings of the same run can be set against.
func replay(ctx context.Context, cfg config, g *rewire.Graph, ids []rewire.NodeID) (map[string]float64, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("the traced pass recorded %d nodes, too few to replay", len(ids))
	}
	m := make(map[string]float64)
	client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
	if _, err := client.QueryBatchContext(ctx, ids); err != nil {
		return nil, err
	}
	replayOSN(ctx, client, ids, m)
	replayCore(client, g, ids, cfg.seed, m)
	if err := replayDurable(cfg, g, ids, m); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := replayHTTP(ctx, g, ids, m); err != nil {
		return nil, fmt.Errorf("httpsrc: %w", err)
	}
	if err := replayServe(ctx, g, ids, m); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return m, nil
}

// perCall runs fn over ids, repeating until at least minTime has passed,
// and returns the mean nanoseconds per call.
func perCall(ids []rewire.NodeID, fn func(v rewire.NodeID)) float64 {
	const minTime = 50 * time.Millisecond
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < minTime {
		for _, v := range ids {
			fn(v)
		}
		calls += len(ids)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// replayOSN times cache hits through osn.Client.NeighborsContext.
func replayOSN(ctx context.Context, c *osn.Client, ids []rewire.NodeID, m map[string]float64) {
	m["osn.hit_ns"] = perCall(ids, func(v rewire.NodeID) { _, _ = c.NeighborsContext(ctx, v) })
}

// replayCore times the MTO step on a warm cache, overlay reads, and the
// Theorem 3/5 removal test on recorded edges.
func replayCore(c *osn.Client, g *rewire.Graph, ids []rewire.NodeID, seed uint64, m map[string]float64) {
	ov := core.NewOverlay(c)
	s := core.NewSamplerOn(ov, ids[0], core.DefaultConfig(), rng.New(seed))
	const steps = 20_000
	state := s.RandState()
	for i := 0; i < steps; i++ { // warm: queries and rewiring happen here
		s.Step()
	}
	s.SetCurrent(ids[0])
	s.SetRandState(state)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	m["core.step_warm_ns"] = float64(time.Since(t0).Nanoseconds()) / steps
	m["core.overlay_read_ns"] = perCall(ids, func(v rewire.NodeID) { _ = ov.Neighbors(v) })
	var scratch []graph.NodeID
	m["core.criterion_ns"] = perCall(ids, func(v rewire.NodeID) {
		nu := g.Neighbors(v)
		if len(nu) == 0 {
			return
		}
		nw := g.Neighbors(nu[0])
		scratch = graph.IntersectSortedInto(scratch, nu, nw)
		_ = core.Removable(scratch, len(nu), len(nw), c)
	})
}

// replayDurable times WAL appends (without and with fsync), then a small
// cold crawl into a fresh cache, its reopen, and the warm re-walk over the
// replayed state.
func replayDurable(cfg config, g *rewire.Graph, ids []rewire.NodeID, m map[string]float64) error {
	appendCost := func(opt durable.Options, n int) (float64, error) {
		dir, err := scratchDir(cfg, "replay-wal")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		c, err := durable.Open(dir, opt)
		if err != nil {
			return 0, err
		}
		n = min(n, len(ids))
		t0 := time.Now()
		for _, v := range ids[:n] {
			if err := c.RecordFetch(v, osn.Response{User: v, Neighbors: g.Neighbors(v)}, true, ""); err != nil {
				c.Close()
				return 0, err
			}
		}
		d := time.Since(t0)
		return float64(d.Nanoseconds()) / float64(n), c.Close()
	}
	ns, err := appendCost(durable.Options{}, len(ids))
	if err != nil {
		return err
	}
	m["durable.append_ns"] = ns
	if ns, err = appendCost(durable.Options{Fsync: true}, 32); err != nil {
		return err
	}
	m["durable.append_fsync_us"] = ns / 1e3

	dir, err := scratchDir(cfg, "replay-crawl")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const steps = 20_000
	walkOnce := func() (*osn.Client, *durable.Cache, time.Duration, time.Duration, error) {
		t0 := time.Now()
		c, err := durable.Open(dir, durable.Options{})
		if err != nil {
			return nil, nil, 0, 0, err
		}
		client := osn.NewClient(osn.NewService(g, nil, osn.Config{}))
		if err := c.Attach(client); err != nil {
			c.Close()
			return nil, nil, 0, 0, err
		}
		open := time.Since(t0)
		w := walk.NewSimple(client, ids[0], rng.New(cfg.seed))
		t1 := time.Now()
		for i := 0; i < steps; i++ {
			w.Step()
		}
		return client, c, open, time.Since(t1), nil
	}
	cold, c, _, _, err := walkOnce()
	if err != nil {
		return err
	}
	bill := cold.UniqueQueries()
	if err := c.Close(); err != nil {
		return err
	}
	warm, c, reopen, warmTime, err := walkOnce()
	if err != nil {
		return err
	}
	defer c.Close()
	if warm.UniqueQueries() != bill {
		return fmt.Errorf("warm re-walk billed %d, the cold walk %d", warm.UniqueQueries(), bill)
	}
	m["durable.reopen_ms"] = reopen.Seconds() * 1e3
	m["durable.warm_samples_per_s"] = steps / warmTime.Seconds()
	return nil
}

// replayHTTP times 64-id round trips against a local provider server with no
// latency: the client's round trip, the server's handling of it, and the
// difference (encoding, the HTTP client and the loopback socket).
func replayHTTP(ctx context.Context, g *rewire.Graph, ids []rewire.NodeID, m map[string]float64) error {
	var served atomic.Int64
	h := httpsrc.Handler(g, httpsrc.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		served.Store(int64(time.Since(t0)))
	})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	b, err := httpsrc.New(httpsrc.Options{BaseURL: "http://" + ln.Addr().String() + "/", ValidationCache: -1})
	if err != nil {
		return err
	}
	defer b.Close()
	const rounds, batch = 200, 64
	var rtt, server, overhead []float64
	for r := 0; r < rounds; r++ {
		off := (r * batch) % len(ids)
		chunk := make([]rewire.NodeID, 0, batch)
		for i := 0; i < batch; i++ {
			chunk = append(chunk, ids[(off+i)%len(ids)])
		}
		t0 := time.Now()
		if _, _, err := b.FetchPartial(ctx, chunk); err != nil {
			return err
		}
		d := time.Since(t0)
		s := time.Duration(served.Load())
		rtt = append(rtt, float64(d)/1e3)
		server = append(server, float64(s)/1e3)
		overhead = append(overhead, float64(d-s)/1e3)
	}
	m["httpsrc.batch64_rt_us"] = quantile(rtt, 0.5)
	m["httpsrc.server_p50_us"] = quantile(server, 0.5)
	m["httpsrc.client_overhead_us"] = quantile(overhead, 0.5)
	return nil
}

// replayServe runs a few small jobs through a daemon over loopback, started
// from recorded nodes, timing what an API client sees.
func replayServe(ctx context.Context, g *rewire.Graph, ids []rewire.NodeID, m map[string]float64) error {
	srv := serve.New(ctx, serve.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "replay serve:", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	backend := registerGraph("replay", g)
	const jobs, samples = 8, 200
	var submit, first, total []float64
	var lines int
	var streamTime time.Duration
	for j := 0; j < jobs; j++ {
		spec := serve.JobSpec{Backend: backend, Samples: samples, Algorithm: "SRW", Fleet: 1, Seed: uint64(j + 1),
			Starts: []rewire.NodeID{ids[j%len(ids)]}}
		r, err := runJob(ctx, client, base, spec, nil)
		if err != nil {
			return err
		}
		submit = append(submit, r.submit.Seconds()*1e3)
		first = append(first, r.firstLine.Seconds()*1e3)
		total = append(total, r.total.Seconds()*1e3)
		lines += r.lines
		streamTime += r.stream
	}
	m["serve.submit_p50_ms"] = quantile(submit, 0.5)
	m["serve.first_line_p50_ms"] = quantile(first, 0.5)
	m["serve.job_p99_ms"] = quantile(total, 0.99)
	m["serve.stream_lines_per_s"] = float64(lines) / streamTime.Seconds()
	return nil
}
