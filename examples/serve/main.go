// Command serve demonstrates the multi-tenant sampling daemon end to end,
// all in one process:
//
//  1. a reference HTTP provider (internal/httpsrc.Handler) serves a generated
//     social graph over GET /neighbors + /meta, with per-request latency like
//     a real API;
//  2. a serve.Server — the engine behind cmd/rewire-serve — opens ONE shared
//     provider stack for that URL;
//  3. a client submits a job, follows its JSON-lines stream, pauses it
//     mid-run, resumes it, and reads the final estimate — the resumed
//     trajectory continuing byte-identically where the paused one stopped.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"rewire"
	"rewire/internal/httpsrc"
	"rewire/internal/serve"
)

type event struct {
	Sample   *rewire.Sample `json:"sample"`
	State    string         `json:"state"`
	Estimate *float64       `json:"estimate"`
	Error    string         `json:"error"`
}

// follow reads the job's stream from index `from`, calling onSample per
// sample, until the closing state line.
func follow(base, id string, from int, onSample func(n int)) (int, event, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", base, id, from))
	if err != nil {
		return 0, event{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return n, event{}, err
		}
		if ev.Sample != nil {
			n++
			if onSample != nil {
				onSample(n)
			}
			continue
		}
		return n, ev, nil
	}
	if err := sc.Err(); err != nil {
		return n, event{}, fmt.Errorf("stream ended without a state line: %w", err)
	}
	return n, event{}, fmt.Errorf("stream ended without a state line")
}

func listen() (net.Listener, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String()
}

// boundedServer serves h with the header and idle timeouts cmd/rewire-serve
// uses, so a stalled or idle client cannot pin a connection forever.
func boundedServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

func main() {
	// 1. The reference provider: a 3000-user social graph behind a real
	// socket, 1ms per request — slow enough that pausing lands mid-run.
	g, err := rewire.SocialGraph(3000, 12000, 7)
	if err != nil {
		log.Fatal(err)
	}
	provLn, provURL := listen()
	go boundedServer(httpsrc.Handler(g, httpsrc.ServerOptions{Latency: time.Millisecond})).Serve(provLn)

	// 2. The daemon: one shared provider stack per backend URL.
	srv := serve.New(context.Background(), serve.Options{})
	defer srv.Close()
	srvLn, base := listen()
	go boundedServer(srv.Handler()).Serve(srvLn)
	fmt.Printf("provider at %s, daemon at %s\n\n", provURL, base)

	// 3. Submit: a JSON spec mirroring the SDK's functional options.
	spec := fmt.Sprintf(`{"backend": %q, "tenant": "demo", "samples": 1200, "algorithm": "MTO", "seed": 42}`,
		provURL+"?timeout=10s")
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted job %s: %s\n", sub.ID, spec)

	// 4. Stream, pausing after 300 samples.
	pauseAt := 300
	n1, end, err := follow(base, sub.ID, 0, func(n int) {
		if n == pauseAt {
			if _, err := http.Post(base+"/v1/jobs/"+sub.ID+"/pause", "", nil); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d samples, then the stream ended %q (pause quiesces at a step boundary)\n", n1, end.State)

	var bills struct {
		Tenants map[string]map[string]rewire.TenantBill `json:"tenants"`
	}
	getJSON(base+"/v1/tenants", &bills)
	for url, bill := range bills.Tenants["demo"] {
		fmt.Printf("tenant %q billed %d unique queries on %s so far\n", "demo", bill.Unique, url)
	}

	// 5. Resume: the stored checkpoint is fed through rewire.Resume with the
	// SHARED provider reattached, so the walk keeps every cached neighbor
	// list it already paid for and continues byte-identically.
	if _, err := http.Post(base+"/v1/jobs/"+sub.ID+"/resume", "", nil); err != nil {
		log.Fatal(err)
	}
	n2, end, err := follow(base, sub.ID, n1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed: %d more samples, stream ended %q\n", n2, end.State)
	if end.Estimate != nil {
		fmt.Printf("final average-degree estimate: %.3f (true %.3f)\n",
			*end.Estimate, 2*float64(g.NumEdges())/float64(g.NumNodes()))
	}
	getJSON(base+"/v1/tenants", &bills)
	for url, bill := range bills.Tenants["demo"] {
		fmt.Printf("tenant %q final bill on %s: %d unique queries\n", "demo", url, bill.Unique)
	}
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
