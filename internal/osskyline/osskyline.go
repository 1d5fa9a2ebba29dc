// Package osskyline implements the output-size-specified skyline baseline
// used in the paper's qualitative study (Section 6.1): the m skyline
// records that dominate the most non-skyline records, following Lin et
// al.'s "k most representative skyline" definition [49] — the most cited
// full-dimensionality OSS-skyline formulation. Dominance counts are
// computed with R-tree subtree aggregation rather than a linear scan.
package osskyline

import (
	"sort"

	"ordu/internal/geom"
	"ordu/internal/rtree"
	"ordu/internal/skyband"
)

// Result is one selected representative with its dominance count.
type Result struct {
	ID    int
	Point geom.Vector
	Count int // number of records it dominates
}

// TopM returns the m skyline records with the highest dominance counts.
// Fewer are returned when the skyline itself is smaller than m. Ties in
// dominance count break towards the smaller id, keeping results
// deterministic.
//
//ordlint:borrows — the results' points alias the tree's packed storage
func TopM(tree *rtree.Tree, m int) []Result {
	sky := skyband.Skyline(tree)
	res := make([]Result, 0, len(sky))
	for _, s := range sky {
		res = append(res, Result{
			ID:    s.ID,
			Point: s.Point,
			Count: tree.CountDominated(s.Point),
		})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Count != res[j].Count {
			return res[i].Count > res[j].Count
		}
		return res[i].ID < res[j].ID
	})
	if len(res) > m {
		res = res[:m]
	}
	return res
}
