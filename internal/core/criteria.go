// Package core implements the paper's contribution: the MTO-Sampler
// ("Modified TOpology Sampler"), which speeds up third-party random walks
// over an online social network by rewiring a *virtual overlay* of the graph
// on-the-fly, using only the local neighborhoods the walk has already paid
// queries for.
//
// Three results drive it:
//
//   - Theorem 3 (edge removal): if ⌈|N(u)∩N(v)|/2⌉ + 1 > max(ku, kv)/2 then
//     (u,v) is provably non-cross-cutting and can be deleted from the
//     overlay without decreasing conductance.
//   - Theorem 5 (extension): degree knowledge of common neighbors cached
//     from earlier queries strengthens the test — each known common
//     neighbor w with 2 ≤ kw ≤ 3 contributes (4-kw)/2 to the left side.
//   - Theorem 4 (edge replacement): around a degree-3 pivot p, an incident
//     edge (x, p) may be replaced by (x, y) for the other neighbor y of p
//     without ever decreasing conductance.
//
// The Sampler (Algorithm 1) applies these while walking; BuildOverlay
// applies them offline to a known graph for the paper's Fig 10 style
// spectral measurements. Config holds only what callers vary: which
// operations run, the Theorem 5 extension, the weight mode and prefetch
// hints. Algorithm 1's own settings are fixed: the sampler tests the criterion
// on original lists and has no move coin (see Sampler.Step), and constants set
// the 1/2 replace coin, one replacement per pivot, the inner re-pick cap, the
// degree floor and WeightSampled's sample size.
//
// Four shortcuts let the criterion skip most of its work, and all are exact
// (they never change a verdict). Two are bounds. Doubled, the left side of
// Theorem 3 is 2⌈c/2⌉+2 and that of Theorem 5 is 2⌈r/2⌉+2+Σ(4-kw), where c
// common neighbors split into r plain ones and c-r cached at degree 2 or 3:
//
//   - Each common neighbor adds at most 2 to the doubled left side, so it
//     never exceeds 2c+2, and c ≤ min(ku, kv). When 2·min(ku,kv)+2 ≤
//     max(ku,kv) neither theorem can fire, so the sampler rejects the edge
//     from the two degrees alone, before intersecting any lists; with c in
//     hand, Theorem 5 skips its degree scan when 2c+2 ≤ max(ku,kv).
//   - Scanning the common neighbors in order, the left side computed over the
//     scanned prefix never decreases and ends at the full value, and each
//     unscanned neighbor adds at most 2 more. So the scan stops with true as
//     soon as the prefix exceeds max(ku,kv), and with false as soon as the
//     prefix plus 2 per unscanned neighbor cannot.
//
// The third is a version. The client counts the demand-cached users of
// degree 2 or 3 (osn.Client.LowDegreeCount), the only ones Theorem 5 can
// credit. Original lists never change and cached entries are never evicted,
// so the count only grows, and while it is unchanged so is every Theorem 5
// verdict:
//
//   - At count 0, Theorem 5 is Theorem 3, so the sampler skips the degree
//     scan and reads no cached degree at all.
//   - The sampler memoizes each negative verdict with the count it was
//     judged at, and reuses it only at that same count.
//
// The fourth is a degree gate that joins the first bound to the version. At
// count 0 the verdict is Theorem 3's, which is nondecreasing in c, and c ≤
// min(ku, kv); so when Theorem 3 fails at c = min(ku, kv), the sampler
// rejects the edge from the two degrees alone. Only edges whose endpoint
// degrees differ by at most 2 pass this gate. Both degree tests run before
// any list merge, including the overlay's shared-neighbor guard: all the
// tests are conjuncts, so their order cannot change a verdict.
package core

import "rewire/internal/graph"

// RemovableTheorem3 evaluates the paper's Theorem 3 removal criterion given
// the common-neighbor count of (u, v) and the endpoint degrees:
//
//	⌈common/2⌉ + 1 > max(ku, kv)/2.
//
// All arithmetic stays in integers (the comparison is doubled) so there is
// no floating-point edge case. The caller must pass degrees and common
// counts measured on the *current overlay* — evaluating against the original
// graph while the overlay has diverged voids the theorem's guarantee.
func RemovableTheorem3(common, ku, kv int) bool {
	maxDeg := ku
	if kv > maxDeg {
		maxDeg = kv
	}
	// 2*(⌈n/2⌉ + 1) > maxDeg  with ⌈n/2⌉ = (n+1)/2 in integer division.
	return 2*((common+1)/2+1) > maxDeg
}

// DegreeCache supplies degree knowledge already present in the sampler's
// local store — the "historical information [obtained] without paying any
// query cost" of the paper's §III-D. *osn.Client implements it.
type DegreeCache interface {
	CachedDegree(v graph.NodeID) (int, bool)
}

// RemovableTheorem5 evaluates the extended criterion of Theorem 5. common
// lists the common neighbors of (u, v) on the current overlay; cache
// provides free degree knowledge. With N* = {w ∈ common : kw cached,
// 2 ≤ kw ≤ 3}, the edge is removable when
//
//	⌈(|common| - |N*|)/2⌉ + 1 + Σ_{w∈N*} (4-kw)/2 > max(ku, kv)/2.
//
// With an empty N* this degenerates to Theorem 3 exactly, so callers can use
// it unconditionally. A nil cache is treated as empty. The degree scan stops
// as soon as its outcome is settled (see the package comment), so cache
// lookups are skipped once they can no longer change the verdict.
func RemovableTheorem5(common []graph.NodeID, ku, kv int, cache DegreeCache) bool {
	maxDeg := max(ku, kv)
	if cache == nil || len(common) == 0 || !canFire(len(common), maxDeg) {
		// Nothing to scan, or nothing the scan finds could make it fire.
		return RemovableTheorem3(len(common), ku, kv)
	}
	rest := 0  // scanned common neighbors outside N*
	bonus := 0 // Σ (4 - kw) over scanned N*, kept doubled like the comparison
	for i, w := range common {
		if kw, ok := cache.CachedDegree(w); ok && kw >= 2 && kw <= 3 {
			bonus += 4 - kw
		} else {
			rest++
		}
		// 2*(⌈rest/2⌉ + 1) + bonus over the scanned prefix.
		lhs := 2*((rest+1)/2+1) + bonus
		if lhs > maxDeg {
			return true
		}
		if lhs+2*(len(common)-1-i) <= maxDeg {
			return false
		}
	}
	return false
}

// canFire reports whether an edge with common common neighbors and larger
// endpoint degree maxDeg could pass Theorem 3 or 5 at all: each common
// neighbor adds at most 2 to the doubled left side, which starts at 2.
func canFire(common, maxDeg int) bool { return 2*common+2 > maxDeg }

// degreesCanFire reports whether an edge whose endpoints have degrees ku and
// kv could pass Theorem 3 or 5 for any set of common neighbors. It cannot
// when 2·min(ku,kv)+2 ≤ max(ku,kv), since the common count is at most the
// smaller degree; callers use it to skip the list intersection.
func degreesCanFire(ku, kv int) bool { return canFire(min(ku, kv), max(ku, kv)) }

// Removable combines both certificates: an edge is removable when Theorem 3
// fires on the counts alone, or Theorem 5 fires with cached degree
// knowledge. The two are combined with OR because the ⌈·/2⌉ parity makes
// neither test pointwise stronger: e.g. with 3 common neighbors, one cached
// at degree 3, and max degree 5, Theorem 3 fires (6 > 5) while the Theorem 5
// left side is only 5.
func Removable(common []graph.NodeID, ku, kv int, cache DegreeCache) bool {
	if RemovableTheorem3(len(common), ku, kv) {
		return true
	}
	if cache == nil {
		return false
	}
	return RemovableTheorem5(common, ku, kv, cache)
}

// ReplaceablePivot reports whether Theorem 4 applies at pivot p given its
// overlay degree: replacement around p is conductance-safe exactly when
// deg(p) == 3 (Corollary 2 shows 3 is the *only* safe degree).
func ReplaceablePivot(degP int) bool { return degP == 3 }
