package exp

import (
	"io"

	"rewire/internal/dataset"
	"rewire/internal/rng"
)

// Table1Row is one dataset row of the paper's Table I.
type Table1Row struct {
	Name       string
	Nodes      int
	Edges      int
	Diameter90 float64
}

// Table1Result reproduces Table I: dataset name, #nodes, #edges, 90%
// effective diameter.
type Table1Result struct {
	Rows []Table1Row
	// Paper holds the published values for side-by-side rendering.
	Paper []Table1Row
}

// PaperTable1 returns the values printed in the paper.
func PaperTable1() []Table1Row {
	return []Table1Row{
		{"Epinions", 26588, 100120, 4.8},
		{"Slashdot A", 70068, 428714, 4.5},
		{"Slashdot B", 70999, 436453, 4.5},
	}
}

// Table1 measures the (generated) local datasets. diameterSamples BFS
// sources estimate the 90% effective diameter (paper-scale graphs: a few
// hundred sources suffice).
func Table1(full bool, diameterSamples int, seed uint64) Table1Result {
	if diameterSamples <= 0 {
		diameterSamples = 200
	}
	res := Table1Result{Paper: PaperTable1()}
	r := rng.New(seed)
	for _, d := range dataset.All(full) {
		res.Rows = append(res.Rows, Table1Row{
			Name:       d.Name,
			Nodes:      d.Graph.NumNodes(),
			Edges:      d.Graph.NumEdges(),
			Diameter90: d.Graph.EffectiveDiameter(0.9, diameterSamples, r.Split()),
		})
	}
	return res
}

// Render writes the measured-vs-paper table.
func (t Table1Result) Render(w io.Writer) {
	tab := &Table{Header: []string{
		"Dataset", "#nodes", "#edges", "90% diameter",
		"paper #nodes", "paper #edges", "paper diam",
	}}
	for i, row := range t.Rows {
		var p Table1Row
		if i < len(t.Paper) {
			p = t.Paper[i]
		}
		tab.AddRow(row.Name,
			itoa(int64(row.Nodes)), itoa(int64(row.Edges)), f1(row.Diameter90),
			itoa(int64(p.Nodes)), itoa(int64(p.Edges)), f1(p.Diameter90))
	}
	tab.Render(w)
}
