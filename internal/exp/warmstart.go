package exp

import (
	"os"
	"time"

	"rewire/internal/dataset"
	"rewire/internal/durable"
	"rewire/internal/osn"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

// WarmStartRow is one durable-cache cold-vs-reopen measurement: the cold leg
// crawls into a fresh cache directory (WAL appends on every billed fetch),
// the warm leg reopens the same directory and repeats the identical
// fixed-seed crawl over the recovered state.
type WarmStartRow struct {
	// ColdWall covers Open + attach + the cold crawl + Close (WAL seal).
	ColdWall time.Duration
	// WarmWall covers reopen (recovery replay) + the same crawl warm.
	WarmWall time.Duration
	// ColdUnique is the cold crawl's deterministic unique-query bill — every
	// one of these entries persisted through the WAL.
	ColdUnique int64
	// WarmNew is the number of unique queries the warm crawl billed beyond
	// the recovered ledger. The durability contract pins it at exactly 0:
	// every replayed entry is a cache hit, never re-billed.
	WarmNew int64
	// Recovered is the unique-query ledger recovered at reopen (equals
	// ColdUnique when recovery is exact).
	Recovered int64
}

// RunWarmStart measures the warm-start path a restarted crawl pays with a
// durable cache: cold crawl into a fresh directory, reopen, identical crawl
// again. Both legs drive a single SRW walker through `samples` steps over
// the full client stack; the counters are deterministic functions of the
// seed, so the CI gate pins ColdUnique within tolerance and WarmNew exactly
// at zero.
func RunWarmStart(ds dataset.Dataset, samples int, seed uint64) (WarmStartRow, error) {
	dir, err := os.MkdirTemp("", "rewire-warmbench-*")
	if err != nil {
		return WarmStartRow{}, err
	}
	defer os.RemoveAll(dir)
	var row WarmStartRow

	crawl := func() (*osn.Client, func() error, error) {
		c, err := durable.Open(dir, durable.Options{})
		if err != nil {
			return nil, nil, err
		}
		client := osn.NewClient(osn.NewService(ds.Graph, nil, osn.Config{}))
		if err := c.Attach(client); err != nil {
			c.Close()
			return nil, nil, err
		}
		return client, c.Close, nil
	}

	t0 := time.Now()
	client, closeCache, err := crawl()
	if err != nil {
		return row, err
	}
	w := walk.NewSimple(client, 0, rng.New(seed).Split())
	for i := 0; i < samples; i++ {
		w.Step()
	}
	row.ColdUnique = client.UniqueQueries()
	if err := closeCache(); err != nil {
		return row, err
	}
	row.ColdWall = time.Since(t0)

	t1 := time.Now()
	client, closeCache, err = crawl()
	if err != nil {
		return row, err
	}
	row.Recovered = client.UniqueQueries()
	w = walk.NewSimple(client, 0, rng.New(seed).Split())
	for i := 0; i < samples; i++ {
		w.Step()
	}
	row.WarmNew = client.UniqueQueries() - row.Recovered
	if err := closeCache(); err != nil {
		return row, err
	}
	row.WarmWall = time.Since(t1)
	return row, nil
}
