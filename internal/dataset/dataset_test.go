package dataset

import "testing"

// TestByNameBuildsOnlyThatPreset pins per-name builds: one name generates
// one graph, a repeat request reuses it, and the Table I listing builds only
// the entries not built yet. It is the package's only test that builds, so
// the counter starts at zero.
func TestByNameBuildsOnlyThatPreset(t *testing.T) {
	if n := builds.Load(); n != 0 {
		t.Fatalf("%d presets built before any request", n)
	}
	b := ByName("Slashdot B", false)
	if b == nil || b.Name != "Slashdot B" || b.Graph.NumNodes() == 0 {
		t.Fatalf("ByName(Slashdot B) = %+v", b)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("requesting Slashdot B built %d presets, want 1", n)
	}
	if again := ByName("Slashdot B", false); again.Graph != b.Graph || builds.Load() != 1 {
		t.Fatal("a repeat request rebuilt the preset")
	}
	small := Small()
	if n := builds.Load(); n != 3 {
		t.Fatalf("Small after Slashdot B built %d presets in all, want 3", n)
	}
	for i, want := range []string{"Epinions", "Slashdot A", "Slashdot B"} {
		if small[i].Name != want {
			t.Fatalf("Small()[%d] = %s, want %s", i, small[i].Name, want)
		}
	}
	if small[2].Graph != b.Graph || small[1].Graph == b.Graph {
		t.Fatal("Small does not share the per-name entries")
	}
	if ByName("nope", false) != nil || ByName("Epinions B", true) != nil {
		t.Fatal("unknown name resolved")
	}
	if n := builds.Load(); n != 3 {
		t.Fatalf("unknown names built presets: %d in all, want 3", n)
	}
	if gp := ByName("Google Plus", false); gp == nil || builds.Load() != 4 {
		t.Fatalf("Google Plus: %+v after %d builds in all, want 4", gp, builds.Load())
	}
}
