package skyband

import (
	"math"
	"math/rand"
	"testing"

	"ordu/internal/geom"
)

// FuzzMindistAtLeast checks the threshold test against the comparison it
// stands in for: MindistAtLeastWS(w, ri, rj, rho) must equal
// MindistWS(w, ri, rj) >= rho exactly, on every path — the closed form,
// the tie-hyperplane shortcut and the projection or QP behind it.
//
// Inputs are d = 2 to 6 pairs of five shapes: general pairs, dominance
// pairs, pairs whose difference is near-parallel to the ones vector
// (proj2 around the 1e-18 cut-off), seeds on a face of the simplex (the
// foot leaves the simplex, so the projection runs), and the QP fallback
// input of alloc_test.go. rho is the mindist itself, one ulp either side
// of it, 0, +Inf, the fuzzer's own value, the tie-hyperplane distance
// (the shortcut's bound) and that bound divided by 1+mindistMargin, where
// the shortcut starts to answer alone. The seed corpus lives in
// testdata/fuzz/FuzzMindistAtLeast.
func FuzzMindistAtLeast(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, db uint8, seed int64, mode uint8, x float64) {
		d := 2 + int(db)%5
		w, ri, rj := mindistFuzzPair(shape, d, seed)
		var ws Workspace
		md := MindistWS(w, ri, rj, &ws)
		rho := mindistFuzzRho(mode, md, w, ri, rj, x)
		var ws2 Workspace
		if got, want := MindistAtLeastWS(w, ri, rj, rho, &ws2), md >= rho; got != want {
			t.Fatalf("MindistAtLeastWS = %v, MindistWS >= rho = %v (mindist %v, rho %v)\nw  = %v\nri = %v\nrj = %v",
				got, want, md, rho, w, ri, rj)
		}
	})
}

// mindistFuzzPair builds (w, ri, rj) of the given shape, with rj scoring at
// least as high as ri for w (Mindist's precondition).
func mindistFuzzPair(shape uint8, d int, seed int64) (w, ri, rj geom.Vector) {
	rng := rand.New(rand.NewSource(seed))
	w = make(geom.Vector, d)
	sum := 0.0
	for i := range w {
		w[i] = rng.ExpFloat64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	ri, rj = make(geom.Vector, d), make(geom.Vector, d)
	switch shape % 5 {
	case 0: // general pair
		for i := range ri {
			ri[i], rj[i] = rng.Float64(), rng.Float64()
		}
	case 1: // dominance pair (identical records when every step is 0)
		for i := range ri {
			ri[i] = rng.Float64()
			rj[i] = ri[i] + 0.1*rng.Float64()*float64(rng.Intn(2))
		}
	case 2: // ri - rj = c*1 + eps*u: proj2 = eps^2 |u_perp|^2 near 1e-18
		c := []float64{0, 1e-12, -1e-12, 1e-3}[rng.Intn(4)]
		eps := 1e-9 * math.Pow(10, 2*rng.Float64()-1)
		for i := range ri {
			rj[i] = rng.Float64()
			ri[i] = rj[i] + c + eps*rng.NormFloat64()
		}
	case 3: // seed on a face of the simplex: the foot tends to leave it
		zero := 1 + rng.Intn(d-1)
		sum = 0
		for _, i := range rng.Perm(d)[:zero] {
			w[i] = 0
		}
		for _, v := range w {
			sum += v
		}
		for i := range w {
			w[i] /= sum
		}
		for i := range ri {
			ri[i], rj[i] = rng.Float64(), rng.Float64()
		}
	default: // the QP fallback input (d = 3)
		w, ri, rj = qpFallbackInput()
	}
	if ri.Dot(w) > rj.Dot(w) {
		ri, rj = rj, ri
	}
	return w, ri, rj
}

// mindistFuzzRho picks the radius to compare against, around the exact
// mindist md or the tie-hyperplane bound.
func mindistFuzzRho(mode uint8, md float64, w, ri, rj geom.Vector, x float64) float64 {
	bound, _ := mindistClosed(w, ri, rj)
	switch mode % 9 {
	case 0:
		return md
	case 1:
		return math.Nextafter(md, math.Inf(1))
	case 2:
		return math.Nextafter(md, math.Inf(-1))
	case 3:
		return 0
	case 4:
		return math.Inf(1)
	case 5:
		return x
	case 6:
		return bound
	case 7:
		return bound / (1 + mindistMargin)
	default:
		return math.Nextafter(bound/(1+mindistMargin), math.Inf(-1))
	}
}

// TestMindistAtLeastShortcut pins that the tie-hyperplane shortcut runs: on
// an input whose foot leaves the simplex, a radius below the bound is
// answered without the projection (the workspace stays untouched), and the
// mindist itself, above the bound, goes through it.
func TestMindistAtLeastShortcut(t *testing.T) {
	w, ri, rj := qpFallbackInput()
	bound, exact := mindistClosed(w, ri, rj)
	md := Mindist(w, ri, rj)
	if exact || !(bound < md) {
		t.Fatalf("input does not leave the simplex: bound %v (exact %v), mindist %v", bound, exact, md)
	}
	var ws Workspace
	if !MindistAtLeastWS(w, ri, rj, bound/2, &ws) {
		t.Fatal("radius below the bound answered false")
	}
	if ws.a != nil {
		t.Fatal("radius below the bound ran the projection")
	}
	if !MindistAtLeastWS(w, ri, rj, md, &ws) || ws.a == nil {
		t.Fatal("radius at the mindist did not go through the projection")
	}
}
