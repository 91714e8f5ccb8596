package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rewire/internal/gen"
	"rewire/internal/rng"
)

func TestNewWalkerAllAlgorithms(t *testing.T) {
	g := gen.Barbell(5)
	for _, alg := range []string{AlgSRW, AlgMTO, AlgMTORM, AlgMTORP, AlgMHRW, AlgRJ} {
		w, err := NewWalker(alg, g, g.NumNodes(), 0, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for i := 0; i < 50; i++ {
			v := w.Step()
			if v < 0 || int(v) >= g.NumNodes() {
				t.Fatalf("%s: stepped out of range: %d", alg, v)
			}
		}
	}
	if _, err := NewWalker("nope", g, g.NumNodes(), 0, rng.New(1)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Header: []string{"a", "long-header"}}
	tab.AddRow("x", "1")
	tab.AddRow("longer-cell", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	var csv bytes.Buffer
	tab.RenderCSV(&csv)
	if !strings.HasPrefix(csv.String(), "a,long-header\n") {
		t.Errorf("csv = %q", csv.String())
	}
}

func TestDatasets(t *testing.T) {
	small := SmallDatasets()
	if len(small) != 3 {
		t.Fatalf("got %d small datasets", len(small))
	}
	for _, d := range small {
		if !d.Graph.IsConnected() {
			t.Errorf("%s: disconnected", d.Name)
		}
	}
	if DatasetByName("Epinions", false) == nil {
		t.Error("Epinions lookup failed")
	}
	if DatasetByName("nope", false) != nil {
		t.Error("bogus lookup succeeded")
	}
	// Caching: same pointer on second call.
	if SmallDatasets()[0].Graph != small[0].Graph {
		t.Error("dataset cache not reused")
	}
}

func TestTable1Quick(t *testing.T) {
	res := Table1(false, 50, 1)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Nodes <= 0 || row.Edges <= 0 {
			t.Errorf("%s: empty dataset", row.Name)
		}
		if row.Diameter90 <= 0 || row.Diameter90 > 20 {
			t.Errorf("%s: 90%% diameter %v implausible", row.Name, row.Diameter90)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Epinions") {
		t.Error("render missing dataset name")
	}
}

func TestRunningExample(t *testing.T) {
	res, err := RunningExample(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 22 || res.Edges != 111 {
		t.Fatalf("barbell = %d/%d", res.Nodes, res.Edges)
	}
	if math.Abs(res.Phi0-1.0/56) > 1e-9 {
		t.Errorf("Φ(G) = %v, want 1/56", res.Phi0)
	}
	if res.PhiRM <= res.Phi0 {
		t.Errorf("Φ(G*) = %v not above Φ(G) = %v", res.PhiRM, res.Phi0)
	}
	if res.PhiBoth <= res.Phi0 {
		t.Errorf("Φ(G**) = %v not above Φ(G)", res.PhiBoth)
	}
	// The paper's coefficient at the measured Φ0 is ~14212.
	if math.Abs(res.Coeff0-14212.3)/14212.3 > 0.05 {
		t.Errorf("coefficient = %v, want ≈14212.3", res.Coeff0)
	}
	// Mixing-time bound drops substantially under rewiring.
	if res.CoeffRM >= res.Coeff0 || res.CoeffBoth >= res.Coeff0 {
		t.Error("mixing bound did not decrease")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "G**") {
		t.Error("render incomplete")
	}
}

func TestFig7Quick(t *testing.T) {
	res, err := Fig7(*DatasetByName("Epinions", false), QuickFig7Config(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if res.Truth <= 0 {
		t.Fatal("no ground truth")
	}
	for _, s := range res.Series {
		if len(s.MeanCost) != len(res.ErrorGrid) {
			t.Fatalf("%s: grid mismatch", s.Algorithm)
		}
		if s.MeanFinalCost <= 0 {
			t.Errorf("%s: zero cost", s.Algorithm)
		}
		for i, settled := range s.Settled {
			if settled < 0 || settled > QuickFig7Config().Runs {
				t.Errorf("%s: settled[%d] = %d out of range", s.Algorithm, i, settled)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "MTO") {
		t.Error("render incomplete")
	}
}

func TestFig8And9Quick(t *testing.T) {
	cfg := QuickFig8Config()
	res, err := Fig8(SmallDatasets()[:1], cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.KL < 0 || math.IsNaN(c.KL) || math.IsInf(c.KL, 0) {
			t.Errorf("%s/%s: KL = %v", c.Dataset, c.Algorithm, c.KL)
		}
		if c.QueryCost <= 0 {
			t.Errorf("%s/%s: cost = %d", c.Dataset, c.Algorithm, c.QueryCost)
		}
	}
	f9, err := Fig9(*DatasetByName("Epinions", false), QuickFig9Config(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(f9.Rows))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	f9.Render(&buf)
	if !strings.Contains(buf.String(), "threshold") {
		t.Error("fig9 render incomplete")
	}
}

func TestFig10Quick(t *testing.T) {
	res, err := Fig10(QuickFig10Config(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GainBound-1.052) > 0.003 {
		t.Errorf("gain bound = %v", res.GainBound)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.Original <= 0 || row.MTOBoth <= 0 || row.MTORemoveOnly <= 0 || row.MTOReplaceOnly <= 0 {
			t.Errorf("size %d: nonpositive mixing times %+v", row.Nodes, row)
		}
		if row.TheoryBound >= row.Original {
			t.Errorf("size %d: theory bound %v not below original %v", row.Nodes, row.TheoryBound, row.Original)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "MTO_RM") {
		t.Error("render incomplete")
	}
}

func TestFig11Quick(t *testing.T) {
	res, err := Fig11(false, QuickFig11Config(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 { // 2 algorithms x 2 aggregates
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if s.ConvergedValue <= 0 || s.ExactTruth <= 0 {
			t.Errorf("%s/%s: degenerate values %+v", s.Algorithm, s.Aggregate, s)
		}
		// The converged value should land within 50% of exact truth even at
		// quick scale.
		if rel := math.Abs(s.ConvergedValue-s.ExactTruth) / s.ExactTruth; rel > 0.5 {
			t.Errorf("%s/%s: converged %v vs exact %v", s.Algorithm, s.Aggregate, s.ConvergedValue, s.ExactTruth)
		}
	}
	if len(res.Trace) != 2 {
		t.Errorf("trace algorithms = %d", len(res.Trace))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "self-description") {
		t.Error("render incomplete")
	}
}

func TestTheorem6Quick(t *testing.T) {
	res, err := Theorem6(QuickTheorem6Config(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GainBound-1.052) > 0.003 {
		t.Errorf("gain bound = %v, want ≈1.052", res.GainBound)
	}
	if math.Abs(res.PNumeric-res.PMonteCarlo) > 0.02 {
		t.Errorf("numeric %v vs MC %v", res.PNumeric, res.PMonteCarlo)
	}
	if float64(res.GeometricCount) < res.BoundCount {
		t.Errorf("eq.(23) bound violated: %d < %v", res.GeometricCount, res.BoundCount)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "1.052") {
		t.Error("render incomplete")
	}
}
