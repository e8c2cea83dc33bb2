package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/geo"
	"repro/internal/noa"
	"repro/internal/raster"
)

// Tests of the benchmark itself: input determinism, the oracles against
// brute force on tiny instances, and the statistics behind compare.

func sequenceBytes(seed uint64) []byte {
	cat := genCatalogue(seed)
	seq := genCatalogueSequence(seed, cat, genSearchPool(seed), genNearPool(seed), 500)
	var b bytes.Buffer
	for _, r := range seq {
		fmt.Fprintf(&b, "%s\x00%s\x00", r.Class, r.Query)
	}
	return b.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	if !bytes.Equal(genCatalogue(7).NT, genCatalogue(7).NT) {
		t.Fatal("catalogue N-Triples differ for the same seed")
	}
	if bytes.Equal(genCatalogue(7).NT, genCatalogue(8).NT) {
		t.Fatal("catalogue N-Triples equal for different seeds")
	}
	if !bytes.Equal(sequenceBytes(7), sequenceBytes(7)) {
		t.Fatal("request sequence differs for the same seed")
	}
	if bytes.Equal(sequenceBytes(7), sequenceBytes(8)) {
		t.Fatal("request sequence equal for different seeds")
	}
	if !bytes.Equal(genExport(3).NT, genExport(3).NT) || bytes.Equal(genExport(3).NT, genExport(4).NT) {
		t.Fatal("export N-Triples not determined by the seed")
	}
	aux, n := auxNTriples()
	a, b, c := genFeed(3, aux, n), genFeed(3, aux, n), genFeed(4, aux, n)
	if !bytes.Equal(a.AuxNT, b.AuxNT) || bytes.Equal(a.AuxNT, c.AuxNT) {
		t.Fatal("fire-feed auxiliary N-Triples not determined by the seed")
	}
	e, f, g, h := genEpisode(3, 0), genEpisode(3, 0), genEpisode(4, 0), genEpisode(3, 1)
	if fmt.Sprint(e.FirePixels) != fmt.Sprint(f.FirePixels) || fmt.Sprint(e.FirePixels) == fmt.Sprint(g.FirePixels) {
		t.Fatalf("fire pixels not determined by the seed: %v %v %v", e.FirePixels, f.FirePixels, g.FirePixels)
	}
	if fmt.Sprint(e.FirePixels) == fmt.Sprint(h.FirePixels) {
		t.Fatalf("episodes 0 and 1 burn the same fires: %v", e.FirePixels)
	}
}

func TestSequenceMix(t *testing.T) {
	cat := genCatalogue(1)
	seq := genCatalogueSequence(1, cat, genSearchPool(1), genNearPool(1), 20000)
	near := 0
	texts := map[string]bool{}
	for _, r := range seq {
		if r.Class == "near" {
			near++
		}
		texts[r.Query] = true
	}
	if share := float64(near) / float64(len(seq)); share < 0.08 || share > 0.12 {
		t.Fatalf("near share %.3f, want about 0.1", share)
	}
	if len(texts) <= 128 {
		t.Fatalf("%d distinct texts; the pool must exceed the 128-entry cache", len(texts))
	}
}

// A brute-force rectangle intersection: some corner of one lies in the
// other, or an edge of one crosses an edge of the other.
func bruteIntersects(a, b box) bool {
	in := func(x, y float64, r box) bool { return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY }
	for _, p := range [][2]float64{{a.MinX, a.MinY}, {a.MaxX, a.MinY}, {a.MinX, a.MaxY}, {a.MaxX, a.MaxY}} {
		if in(p[0], p[1], b) {
			return true
		}
	}
	for _, p := range [][2]float64{{b.MinX, b.MinY}, {b.MaxX, b.MinY}, {b.MinX, b.MaxY}, {b.MaxX, b.MaxY}} {
		if in(p[0], p[1], a) {
			return true
		}
	}
	// A cross: one box's x-span inside the other's and vice versa for y.
	return (a.MinX >= b.MinX && a.MaxX <= b.MaxX && b.MinY >= a.MinY && b.MaxY <= a.MaxY) ||
		(b.MinX >= a.MinX && b.MaxX <= a.MaxX && a.MinY >= b.MinY && a.MaxY <= b.MaxY)
}

func TestSearchOracleAgreesWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	c := &catalogue{}
	for i := 0; i < 40; i++ {
		c.Products = append(c.Products, product{
			IRI:   fmt.Sprintf("p%d", i),
			Sat:   satellites[i%2],
			Time:  catEpoch.Add(time.Duration(r.IntN(1000)) * time.Hour),
			Cover: centredBox(uniform(r, 22, 26), uniform(r, 37, 39), uniform(r, 0.1, 1), uniform(r, 0.1, 1)),
		})
	}
	for k := 0; k < 200; k++ {
		s := searchSpec{Sat: satellites[k%2], From: catEpoch.Add(time.Duration(r.IntN(800)) * time.Hour),
			Window: centredBox(uniform(r, 22, 26), uniform(r, 37, 39), uniform(r, 0.1, 1), uniform(r, 0.1, 1))}
		s.To = s.From.Add(time.Duration(r.IntN(400)) * time.Hour)
		// Brute force: sort everything by time, then walk and filter.
		all := append([]product(nil), c.Products...)
		sort.Slice(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
		var want []string
		for _, p := range all {
			if len(want) < catSearchLimit && p.Sat == s.Sat && !p.Time.Before(s.From) && p.Time.Before(s.To) && bruteIntersects(p.Cover, s.Window) {
				want = append(want, p.IRI)
			}
		}
		if got := expectedSearch(c, s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("search %d: oracle %v, brute force %v", k, got, want)
		}
	}
}

// bruteBoxDistance samples the box densely and takes the least
// haversine distance.
func bruteBoxDistance(p point, b box) float64 {
	best := math.Inf(1)
	const n = 400
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			if i != 0 && i != n && j != 0 && j != n && !(p.X > b.MinX && p.X < b.MaxX && p.Y > b.MinY && p.Y < b.MaxY) {
				continue // interior points never beat the boundary for an outside point
			}
			q := point{b.MinX + (b.MaxX-b.MinX)*float64(i)/n, b.MinY + (b.MaxY-b.MinY)*float64(j)/n}
			best = math.Min(best, haversine(p, q))
		}
	}
	return best
}

func TestNearOracleAgreesWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for k := 0; k < 60; k++ {
		b := centredBox(uniform(r, 22, 26), uniform(r, 37, 39), uniform(r, 0.004, 0.012), uniform(r, 0.003, 0.009))
		p := point{uniform(r, b.MinX-0.1, b.MaxX+0.1), uniform(r, b.MinY-0.1, b.MaxY+0.1)}
		got, want := haversineToBox(p, b), bruteBoxDistance(p, b)
		if math.Abs(got-want) > 0.002*want+1 {
			t.Fatalf("point %v box %v: oracle %.1f m, brute force %.1f m", p, b, got, want)
		}
	}
	// The near answer: must-pairs are strictly within, maybe-pairs near
	// the threshold, everything else beyond.
	c := genCatalogue(5)
	n := nearSpec{Product: 17, Meters: 6000}
	a := expectedNear(c, n)
	for _, h := range c.Products[17].Hotspots {
		for _, s := range c.Sites {
			d := bruteBoxDistance(s.At, h.Box)
			key := h.IRI + "|" + s.IRI
			switch {
			case d < 0.985*n.Meters && !a.Must[key]:
				t.Fatalf("%s at %.0f m missing from the must set", key, d)
			case d > 1.015*n.Meters && (a.Must[key] || a.Maybe[key]):
				t.Fatalf("%s at %.0f m is in the answer", key, d)
			}
		}
	}
}

func TestShapeDistanceAgreesWithBruteForce(t *testing.T) {
	square := shape{parts: [][]point{{{24, 38}, {24.01, 38}, {24.01, 38.01}, {24, 38.01}, {24, 38}}}, polygon: true}
	// A point inside is at distance 0; a point due east at a known offset.
	if d := shapeDistance(shape{parts: [][]point{{{24.005, 38.005}}}}, square); d != 0 {
		t.Fatalf("inside point: %v", d)
	}
	// Squares on one line but apart are as far apart as their nearest
	// corners; squares sharing a stretch of edge touch.
	rect := func(x0, x1 float64) shape {
		return shape{parts: [][]point{{{x0, 38}, {x1, 38}, {x1, 38.01}, {x0, 38.01}, {x0, 38}}}, polygon: true}
	}
	if got, want := shapeDistance(rect(24.02, 24.03), square), haversine(point{24.01, 38}, point{24.02, 38}); math.Abs(got-want) > 0.01*want {
		t.Fatalf("collinear squares: shapeDistance %.1f, want %.1f", got, want)
	}
	if d := shapeDistance(rect(24.005, 24.03), square); d != 0 {
		t.Fatalf("overlapping squares: %v", d)
	}
	r := rand.New(rand.NewPCG(5, 6))
	for k := 0; k < 50; k++ {
		p := point{uniform(r, 23.9, 24.1), uniform(r, 37.9, 38.1)}
		got := shapeDistance(shape{parts: [][]point{{p}}}, square)
		want := bruteBoxDistance(p, box{24, 38, 24.01, 38.01})
		if math.Abs(got-want) > 0.01*want+2 {
			t.Fatalf("point %v: shapeDistance %.1f, brute force %.1f", p, got, want)
		}
	}
}

// TestFireMapCheckIsTwoSided builds a tiny fire map instance: a square
// landmass, one inland hotspot the refinement keeps, one at sea it
// rejects, and sites scattered around the kept one.
func TestFireMapCheckIsTwoSided(t *testing.T) {
	land := geo.Polygon{Exterior: geo.Ring{Coords: []geo.Point{{X: 23, Y: 37}, {X: 25, Y: 37}, {X: 25, Y: 39}, {X: 23, Y: 39}, {X: 23, Y: 37}}}}
	hotBox := box{24, 38, 24.01, 38.008}
	seaBox := box{25.5, 38, 25.51, 38.008}
	poly := func(b box) geo.Polygon {
		return geo.Polygon{Exterior: geo.Ring{Coords: []geo.Point{{X: b.MinX, Y: b.MinY}, {X: b.MaxX, Y: b.MinY}, {X: b.MaxX, Y: b.MaxY}, {X: b.MinX, Y: b.MaxY}, {X: b.MinX, Y: b.MinY}}}}
	}
	p := &noa.Product{FrameID: "f1", Hotspots: []noa.Hotspot{{ID: "f1/hs1", Geometry: poly(hotBox)}, {ID: "f1/hs2", Geometry: poly(seaBox)}}}
	hotIRI, seaIRI := noa.HotspotIRI(p.Hotspots[0]).Value, noa.HotspotIRI(p.Hotspots[1]).Value
	feed := &feedData{Land: geoShape(land)}
	r := rand.New(rand.NewPCG(7, 8))
	var within, beyond []auxFeature
	for k := 0; k < 60; k++ {
		pt := point{uniform(r, 23.8, 24.2), uniform(r, 37.85, 38.15)}
		f := auxFeature{"sites", fmt.Sprintf("site/%d", k), shape{parts: [][]point{{pt}}}}
		switch d := bruteBoxDistance(pt, hotBox); {
		case d < 0.985*feedMapRadius:
			within = append(within, f)
		case d > 1.015*feedMapRadius:
			beyond = append(beyond, f)
		default:
			continue // the band where planar and great-circle distance may disagree
		}
		feed.Aux = append(feed.Aux, f)
	}
	if len(within) < 5 || len(beyond) < 5 {
		t.Fatalf("degenerate instance: %d within, %d beyond", len(within), len(beyond))
	}
	type feat struct {
		layer, iri string
		geom       any
	}
	hotspot := func(iri string, b box) feat {
		c := poly(b).Exterior.Coords
		ring := make([][2]float64, len(c))
		for i, q := range c {
			ring[i] = [2]float64{q.X, q.Y}
		}
		return feat{"hotspots", iri, map[string]any{"type": "Polygon", "coordinates": [][][2]float64{ring}}}
	}
	site := func(f auxFeature) feat {
		q := f.s.parts[0][0]
		return feat{f.layer, f.iri, map[string]any{"type": "Point", "coordinates": []float64{q.X, q.Y}}}
	}
	body := func(fs ...feat) []byte {
		var out struct {
			Type     string `json:"type"`
			Features []any  `json:"features"`
		}
		out.Type = "FeatureCollection"
		for _, f := range fs {
			out.Features = append(out.Features, map[string]any{"type": "Feature", "geometry": f.geom,
				"properties": map[string]string{"x": f.iri, "layer": f.layer}})
		}
		data, _ := json.Marshal(out)
		return data
	}
	full := []feat{hotspot(hotIRI, hotBox)}
	for _, f := range within {
		full = append(full, site(f))
	}
	if msg := checkFireMap(body(full...), "product/f1", p, feed); msg != "" {
		t.Fatalf("complete map rejected: %s", msg)
	}
	for name, fs := range map[string][]feat{
		"empty map":            nil,
		"hotspots only":        {hotspot(hotIRI, hotBox)},
		"a near site dropped":  full[:len(full)-1],
		"a far site added":     append(append([]feat{}, full...), site(beyond[0])),
		"rejected hotspot":     append(append([]feat{}, full...), hotspot(seaIRI, seaBox)),
		"hotspot grown":        append([]feat{hotspot(hotIRI, box{24, 38, 24.05, 38.008})}, full[1:]...),
		"kept hotspot dropped": full[1:],
	} {
		if checkFireMap(body(fs...), "product/f1", p, feed) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFirePixelLoop(t *testing.T) {
	ir39 := array.MustNew("IR_039", array.Dim{Name: "y", Size: 2}, array.Dim{Name: "x", Size: 3})
	ir108 := array.MustNew("IR_108", array.Dim{Name: "y", Size: 2}, array.Dim{Name: "x", Size: 3})
	// (t39, t108): hot and contrasted, hot but flat, cool, edge cases.
	cells := [][2]float64{{330, 300}, {330, 325}, {310, 290}, {318, 310}, {317.9, 300}, {400, 392}}
	for i, c := range cells {
		ir39.Set2(i/3, i%3, c[0])
		ir108.Set2(i/3, i%3, c[1])
	}
	f := &raster.Frame{Bands: map[raster.Band]*array.Array{raster.BandIR39: ir39, raster.BandIR108: ir108}}
	if n := countFirePixels(f); n != 3 { // (330,300), (318,310), (400,392)
		t.Fatalf("fire pixels %d, want 3", n)
	}
}

func TestExportChecksumAgreesAcrossFormats(t *testing.T) {
	type row struct {
		iri  string
		x, y float64
		v    float64
	}
	rows := []row{{"http://x/o1", 23.5, 37.25, 301.5}, {"http://x/o2", 21.000001, 39.999999, 280}, {"http://x/o3", 25, 38, 339.999999}}
	var want uint64
	var js, csv, gj strings.Builder
	csv.WriteString("o,g,v\r\n")
	var bindings, feats []string
	for _, r := range rows {
		want += rowHash(r.iri, r.x, r.y, r.v)
		wkt := fmt.Sprintf("POINT (%s %s)", ff(r.x), ff(r.y))
		bindings = append(bindings, fmt.Sprintf(`{"o":{"type":"uri","value":%q},"g":{"type":"literal","value":%q},"v":{"type":"literal","value":%q}}`, r.iri, wkt+";4326", ff(r.v)))
		fmt.Fprintf(&csv, "%s,%s,%s\r\n", r.iri, wkt, ff(r.v))
		feats = append(feats, fmt.Sprintf(`{"type":"Feature","geometry":{"type":"Point","coordinates":[%s,%s]},"properties":{"o":%q,"v":%q}}`, ff(r.x), ff(r.y), r.iri, ff(r.v)))
	}
	fmt.Fprintf(&js, `{"head":{"vars":["o","g","v"]},"results":{"bindings":[%s]}}`, strings.Join(bindings, ","))
	fmt.Fprintf(&gj, `{"type":"FeatureCollection","features":[%s]}`, strings.Join(feats, ","))
	for f, body := range map[string]string{"json": js.String(), "csv": csv.String(), "geojson": gj.String()} {
		n, chk, err := exportChecksum([]byte(body), f)
		if err != nil || n != len(rows) || chk != want {
			t.Fatalf("%s: %d rows checksum %x err %v, want %d rows %x", f, n, chk, err, len(rows), want)
		}
	}
	// Order independence and sensitivity to a changed value.
	if rowHash("a", 1, 2, 3)+rowHash("b", 4, 5, 6) != rowHash("b", 4, 5, 6)+rowHash("a", 1, 2, 3) {
		t.Fatal("checksum depends on order")
	}
	if rowHash("a", 1, 2, 3) == rowHash("a", 1, 2, 3.000001) {
		t.Fatal("checksum blind to a value change")
	}
}

func TestExportRoundCoversEveryPage(t *testing.T) {
	seen := map[int]bool{}
	exports := 0
	texts := map[string]bool{}
	for _, q := range exportRound(0) {
		if q.Class == "page" {
			seen[q.Pool] = true
		} else {
			exports++
		}
		texts[q.Query] = true
	}
	for _, q := range exportRound(1) {
		texts[q.Query] = true
	}
	if len(seen) != exportRows/exportPageSize || exports != len(exportFormats) {
		t.Fatalf("round has %d distinct pages and %d exports", len(seen), exports)
	}
	if len(texts) != 2*len(exportRound(0)) {
		t.Fatal("request texts repeat across rounds")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) on the same data.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 0.5, 7.7, 2.2, 8.8, 6.6, 5.5}, [3]float64{1.95, 4.95, 7.975}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Fatalf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
			}
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	v := make([]float64, 500)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := tailOrMedian(v, 0.99); got != median(v) {
		t.Fatalf("p99 of 500 samples (5 beyond) = %v, want the median", got)
	}
	if got := tailOrMedian(v, 0.9); got != 450 {
		t.Fatalf("p90 of 500 samples = %v, want 450", got)
	}
	if got := tailOrMedian(v[:100], 0.9); got != 90 {
		t.Fatalf("p90 of 100 samples (10 beyond) = %v, want 90", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"faster", scale(0.8), true, "improved"},
		{"same", base, true, "no worse"},
		{"slightly slower", scale(1.05), true, "no worse"},
		{"much slower", scale(1.3), true, "worse"},
		{"throughput up", scale(1.3), false, "improved"},
		{"throughput down", scale(0.7), false, "worse"},
	}
	for _, c := range cases {
		if v := judge(base, c.b, c.lower, 0.1); v.Verdict != c.want {
			t.Errorf("%s: verdict %q (won %.2f), want %q", c.name, v.Verdict, v.Won, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v := judge(noisy, noisy, true, 0.1); v.Verdict != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", v.Verdict)
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, vobench %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, vobench has %+v", i, s, m)
		}
	}
	for i, m := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, vobench has %+v", i, s, m)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
