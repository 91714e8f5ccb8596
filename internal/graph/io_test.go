package graph

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rewire/internal/rng"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := "# Nodes: 4 Edges: 3\n0\t1\n1\t2\n2\t3\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# leading comment\n\n  \n0 1\n# interior comment\n1 2\n\n# trailing\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListCRLF(t *testing.T) {
	// Windows line endings: the scanner must not leave \r glued to the last
	// field.
	in := "# comment\r\n0\t1\r\n1\t2\r\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatalf("CRLF input rejected: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	// Non-contiguous IDs: nodes 0..6 exist, 1..4 isolated.
	in := "0 5\n5 6\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7 (max ID + 1)", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	for _, iso := range []NodeID{1, 2, 3, 4} {
		if g.Degree(iso) != 0 {
			t.Errorf("node %d should be isolated, degree %d", iso, g.Degree(iso))
		}
	}
	if !g.HasEdge(0, 5) || !g.HasEdge(5, 6) {
		t.Error("sparse edges missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListSmallHintIgnored(t *testing.T) {
	// A hint smaller than max ID + 1 is ignored.
	g, err := ReadEdgeList(strings.NewReader("0 7\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", g.NumNodes())
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"one field", "0\n"},
		{"bad first id", "x 1\n"},
		{"bad second id", "1 y\n"},
		{"negative id", "-1 2\n"},
		{"overflow id", "99999999999 1\n"},
		{"float id", "1.5 2\n"},
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c.in), 0); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
	// Extra fields beyond two are tolerated (SNAP files carry weights).
	if _, err := ReadEdgeList(strings.NewReader("0 1 17\n"), 0); err != nil {
		t.Errorf("three-field line rejected: %v", err)
	}
}

func TestReadEdgeListDuplicatesAndLoops(t *testing.T) {
	in := "0 1\n1 0\n0 1\n2 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dups and self-loops dropped)", g.NumEdges())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {4, 5}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), back.Edges()) || back.NumNodes() != g.NumNodes() {
		t.Fatalf("round trip changed the graph: %v vs %v", g.Edges(), back.Edges())
	}
}

// TestCSRAdjacencyRoundTripProperty cross-checks the CSR pipeline against a
// straightforward adjacency-map reference on random multigraph inputs
// (duplicates, self-loops, both edge orientations), covering Builder,
// FromEdges, and NewFromAdjacency.
func TestCSRAdjacencyRoundTripProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		m := r.Intn(4 * n)
		edges := make([]Edge, 0, m)
		ref := make([]map[NodeID]bool, n)
		for i := range ref {
			ref[i] = map[NodeID]bool{}
		}
		adj := make([][]NodeID, n)
		for i := 0; i < m; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			edges = append(edges, Edge{u, v})
			adj[u] = append(adj[u], v)
			if u != v {
				adj[v] = append(adj[v], u)
				ref[u][v] = true
				ref[v][u] = true
			}
		}
		for _, g := range []*Graph{FromEdges(n, edges), NewFromAdjacency(adj)} {
			if err := g.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if g.NumNodes() != n {
				t.Fatalf("trial %d: NumNodes = %d, want %d", trial, g.NumNodes(), n)
			}
			wantEdges := 0
			for u := 0; u < n; u++ {
				lst := g.Neighbors(NodeID(u))
				if len(lst) != len(ref[u]) {
					t.Fatalf("trial %d node %d: degree %d, want %d", trial, u, len(lst), len(ref[u]))
				}
				for _, v := range lst {
					if !ref[u][v] {
						t.Fatalf("trial %d: spurious edge (%d,%d)", trial, u, v)
					}
				}
				wantEdges += len(ref[u])
			}
			if g.NumEdges() != wantEdges/2 {
				t.Fatalf("trial %d: NumEdges = %d, want %d", trial, g.NumEdges(), wantEdges/2)
			}
			if g.DegreeSum() != wantEdges {
				t.Fatalf("trial %d: DegreeSum = %d, want %d", trial, g.DegreeSum(), wantEdges)
			}
		}
	}
}

// TestNeighborsViewIsAppendSafe pins the CSR aliasing contract: the returned
// view has clipped capacity, so an append cannot overwrite the next node's
// row.
func TestNeighborsViewIsAppendSafe(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	nbrs := g.Neighbors(1) // [0 2], followed in storage by node 2's row
	if cap(nbrs) != len(nbrs) {
		t.Fatalf("Neighbors view capacity %d leaks past its length %d", cap(nbrs), len(nbrs))
	}
	_ = append(nbrs, 99)
	if !reflect.DeepEqual(g.Neighbors(2), []NodeID{1, 3}) {
		t.Fatal("append through a Neighbors view corrupted the adjacent row")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintBytes(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	want := 4*4 + 4*4 // 4 offsets + 4 directed entries
	if got := g.FootprintBytes(); got != want {
		t.Fatalf("FootprintBytes = %d, want %d", got, want)
	}
}

// maxFuzzID bounds the node ids FuzzReadEdgeList feeds the reader: the
// graph has max id + 1 nodes, so one large id on one line costs memory in
// proportion to it, which the fuzzer is not there to measure.
const maxFuzzID = 1 << 16

// hasLargeID reports whether data holds a run of ASCII digits whose value
// exceeds maxFuzzID.
func hasLargeID(data []byte) bool {
	v := 0
	for _, c := range data {
		if c < '0' || c > '9' {
			v = 0
			continue
		}
		if v = v*10 + int(c-'0'); v > maxFuzzID {
			return true
		}
	}
	return false
}

// FuzzReadEdgeList feeds arbitrary text to the edge-list reader: never a
// panic, and either an error or a graph with a node past every id the text
// names, which WriteEdgeList writes out and ReadEdgeList reads back
// unchanged.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"# Nodes: 4 Edges: 3\n0\t1\n1\t2\n2\t3\n",
		"0 1\r\n\r\n# comment\n  1   2  extra\n",
		"3 3\n3 1\n1 3\n",
		"0\n",
		"-1 2\n",
		"1 x\n",
		"+1 2\n",
		"2147483648 0\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if hasLargeID(data) {
			t.Skip("an id above maxFuzzID")
		}
		g, err := ReadEdgeList(bytes.NewReader(data), 0)
		if err != nil {
			return
		}
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) < 2 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			for _, f := range fields[:2] {
				if id, err := strconv.Atoi(f); err != nil || id >= g.NumNodes() {
					t.Fatalf("field %q of line %q, but the graph has %d nodes", f, line, g.NumNodes())
				}
			}
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf, g.NumNodes())
		if err != nil {
			t.Fatalf("reading back %q: %v", buf.Bytes(), err)
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("read back %d nodes, %d edges; wrote %d, %d", back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		for v := range g.NumNodes() {
			if !slices.Equal(back.Neighbors(NodeID(v)), g.Neighbors(NodeID(v))) {
				t.Fatalf("node %d: read back %v, wrote %v", v, back.Neighbors(NodeID(v)), g.Neighbors(NodeID(v)))
			}
		}
	})
}
