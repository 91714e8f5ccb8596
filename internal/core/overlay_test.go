package core

import (
	"reflect"
	"slices"
	"testing"

	"rewire/internal/gen"
	"rewire/internal/graph"
	"rewire/internal/rng"
	"rewire/internal/walk"
)

func TestOverlayPassThrough(t *testing.T) {
	g := gen.Barbell(4)
	ov := NewOverlay(g)
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if !reflect.DeepEqual(ov.Neighbors(u), g.Neighbors(u)) {
			t.Fatalf("node %d: overlay differs from base with empty delta", u)
		}
		if ov.Degree(u) != g.Degree(u) {
			t.Fatalf("node %d: degree mismatch", u)
		}
	}
	if ov.RemovedCount() != 0 || ov.AddedCount() != 0 {
		t.Error("fresh overlay has nonzero delta counts")
	}
}

func TestOverlayRemoveEdge(t *testing.T) {
	g := gen.Complete(4)
	ov := NewOverlay(g)
	ov.RemoveEdge(0, 1)
	if ov.HasEdge(0, 1) || ov.HasEdge(1, 0) {
		t.Error("removed edge still present")
	}
	if ov.Degree(0) != 2 || ov.Degree(1) != 2 {
		t.Errorf("degrees after removal: %d, %d", ov.Degree(0), ov.Degree(1))
	}
	if ov.RemovedCount() != 1 {
		t.Errorf("RemovedCount = %d", ov.RemovedCount())
	}
	if !ov.Removed(0, 1) || !ov.Removed(1, 0) {
		t.Error("Removed() should be symmetric")
	}
	// Base untouched.
	if !g.HasEdge(0, 1) {
		t.Error("base graph mutated")
	}
}

func TestOverlayAddEdge(t *testing.T) {
	g := gen.Path(4) // 0-1-2-3
	ov := NewOverlay(g)
	ov.AddEdge(0, 3)
	if !ov.HasEdge(0, 3) || !ov.HasEdge(3, 0) {
		t.Error("added edge missing")
	}
	if ov.Degree(0) != 2 || ov.Degree(3) != 2 {
		t.Errorf("degrees after addition: %d, %d", ov.Degree(0), ov.Degree(3))
	}
	// Lists stay sorted.
	n0 := ov.Neighbors(0)
	for i := 1; i < len(n0); i++ {
		if n0[i-1] >= n0[i] {
			t.Fatalf("overlay list not sorted: %v", n0)
		}
	}
	// Adding an existing base edge is a no-op.
	ov.AddEdge(0, 1)
	if ov.AddedCount() != 1 {
		t.Errorf("AddedCount = %d after re-adding base edge", ov.AddedCount())
	}
	// Self loops ignored.
	ov.AddEdge(2, 2)
	if ov.AddedCount() != 1 {
		t.Error("self loop was recorded")
	}
}

func TestOverlayRemoveThenAddBack(t *testing.T) {
	g := gen.Complete(3)
	ov := NewOverlay(g)
	ov.RemoveEdge(0, 1)
	ov.AddEdge(0, 1)
	if !ov.HasEdge(0, 1) {
		t.Error("re-added edge missing")
	}
	if ov.RemovedCount() != 0 || ov.AddedCount() != 0 {
		t.Errorf("delta counts = %d/%d, want 0/0", ov.RemovedCount(), ov.AddedCount())
	}
}

func TestOverlayAddThenRemoveCancels(t *testing.T) {
	g := gen.Path(3)
	ov := NewOverlay(g)
	ov.AddEdge(0, 2)
	ov.RemoveEdge(0, 2)
	if ov.HasEdge(0, 2) {
		t.Error("cancelled addition still present")
	}
	if ov.AddedCount() != 0 || ov.RemovedCount() != 0 {
		t.Errorf("delta counts = %d/%d, want 0/0", ov.AddedCount(), ov.RemovedCount())
	}
	if ov.Degree(0) != 1 {
		t.Errorf("Degree(0) = %d", ov.Degree(0))
	}
}

func TestOverlayReplaceEdge(t *testing.T) {
	// Star with hub 0: replace (1,0) with (1,2) (Theorem 4 around pivot 0
	// would need deg 3; this tests the mechanics only).
	g := gen.Star(4)
	ov := NewOverlay(g)
	ov.ReplaceEdge(1, 0, 2)
	if ov.HasEdge(1, 0) {
		t.Error("replaced edge still present")
	}
	if !ov.HasEdge(1, 2) {
		t.Error("replacement edge missing")
	}
	if ov.Degree(0) != 2 || ov.Degree(1) != 1 || ov.Degree(2) != 2 {
		t.Errorf("degrees = %d,%d,%d", ov.Degree(0), ov.Degree(1), ov.Degree(2))
	}
}

func TestOverlayMaterialize(t *testing.T) {
	g := gen.Complete(5)
	ov := NewOverlay(g)
	ov.RemoveEdge(0, 1)
	ov.RemoveEdge(2, 3)
	ov.AddEdge(0, 1) // cancel one removal
	mat := ov.Materialize(g.NumNodes())
	if err := mat.Validate(); err != nil {
		t.Fatal(err)
	}
	if mat.NumEdges() != g.NumEdges()-1 {
		t.Errorf("materialized edges = %d, want %d", mat.NumEdges(), g.NumEdges()-1)
	}
	if mat.HasEdge(2, 3) {
		t.Error("removed edge in materialization")
	}
	if !mat.HasEdge(0, 1) {
		t.Error("restored edge missing from materialization")
	}
}

func TestOverlayMatchesMaterializedProperty(t *testing.T) {
	// Random mutation sequences: the overlay's incremental view must agree
	// exactly with a from-scratch materialization.
	r := rng.New(77)
	for trial := 0; trial < 25; trial++ {
		g := gen.GNP(12, 0.35, r)
		ov := NewOverlay(g)
		for op := 0; op < 40; op++ {
			u := graph.NodeID(r.Intn(12))
			v := graph.NodeID(r.Intn(12))
			if u == v {
				continue
			}
			if r.Bool() {
				ov.RemoveEdge(u, v)
			} else {
				ov.AddEdge(u, v)
			}
		}
		mat := ov.Materialize(12)
		for u := graph.NodeID(0); u < 12; u++ {
			a, b := ov.Neighbors(u), mat.Neighbors(u)
			if len(a) != len(b) {
				t.Fatalf("trial %d node %d: overlay %v vs materialized %v",
					trial, u, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d node %d: overlay %v vs materialized %v",
						trial, u, a, b)
				}
			}
		}
		// Degree sum invariant.
		sum := 0
		for u := graph.NodeID(0); u < 12; u++ {
			sum += ov.Degree(u)
		}
		if sum != 2*mat.NumEdges() {
			t.Fatalf("trial %d: degree sum %d vs 2*edges %d", trial, sum, 2*mat.NumEdges())
		}
	}
}

func TestOverlayRemoveNonexistentIsNoop(t *testing.T) {
	g := gen.Path(3)
	ov := NewOverlay(g)
	ov.RemoveEdge(0, 2) // not an edge
	if ov.Degree(0) != 1 || ov.Degree(2) != 1 {
		t.Error("no-op removal changed degrees")
	}
	if ov.RemovedCount() != 0 {
		t.Error("no-op removal was recorded")
	}
	// Adding it afterwards must produce a present edge.
	ov.AddEdge(0, 2)
	if !ov.HasEdge(0, 2) {
		t.Error("add after spurious remove failed")
	}
}

// TestOverlayAliasesUnchangedBase pins that a node with no delta reads its
// base row itself, not an arena copy, with capacity clipped so an append
// cannot write into the next row. It runs over a *graph.Graph (CSR rows) and
// over a source whose rows keep the rest of their backing array as capacity.
func TestOverlayAliasesUnchangedBase(t *testing.T) {
	g := gen.Complete(5)
	for name, base := range map[string]walk.Source{"graph": g, "unclipped": newUnclipped(g)} {
		ov := NewOverlay(base)
		ov.RemoveEdge(0, 1)
		for u := graph.NodeID(2); u < 4; u++ {
			row, lst := base.Neighbors(u), ov.Neighbors(u)
			if &lst[0] != &row[0] {
				t.Fatalf("%s: node %d: overlay list is a copy, want the base row", name, u)
			}
			if cap(lst) != len(lst) {
				t.Fatalf("%s: node %d: overlay list capacity %d, want clipped to %d", name, u, cap(lst), len(lst))
			}
			next := slices.Clone(base.Neighbors(u + 1))
			_ = append(lst, 99)
			if !slices.Equal(base.Neighbors(u+1), next) {
				t.Fatalf("%s: append to node %d's overlay list wrote into node %d's base row", name, u, u+1)
			}
		}
		// A node with a delta gets its own list; the base row stays intact.
		if lst, row := ov.Neighbors(0), base.Neighbors(0); &lst[0] == &row[0] || len(row) != 4 {
			t.Fatalf("%s: rewired node 0: list %v aliases or changed base row %v", name, lst, row)
		}
	}
}

// unclipped serves a graph's rows as subslices of one flat array without
// clipping their capacity.
type unclipped struct {
	flat []graph.NodeID
	off  []int
}

func newUnclipped(g *graph.Graph) *unclipped {
	u := &unclipped{off: []int{0}}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		u.flat = append(u.flat, g.Neighbors(v)...)
		u.off = append(u.off, len(u.flat))
	}
	return u
}

func (u *unclipped) Neighbors(v graph.NodeID) []graph.NodeID { return u.flat[u.off[v]:u.off[v+1]] }
func (u *unclipped) Degree(v graph.NodeID) int               { return u.off[v+1] - u.off[v] }
