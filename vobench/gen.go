package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/linkeddata"
	"repro/internal/raster"
	"repro/internal/scene"
)

// Every input the server sees is generated here from the run's seed.
// Each generator draws from its own PCG stream, so resizing one input
// does not shift another; the same seed gives byte-identical N-Triples
// and request sequences.

const (
	nsNOA   = "http://teleios.di.uoa.gr/noa#"
	nsMon   = "http://teleios.di.uoa.gr/monitoring#"
	nsGN    = "http://sws.geonames.org/teleios/"
	nsBench = "http://teleios.di.uoa.gr/vobench/"
	rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	rdfsLbl = "http://www.w3.org/2000/01/rdf-schema#label"
	xsdDT   = "http://www.w3.org/2001/XMLSchema#dateTime"
	xsdDbl  = "http://www.w3.org/2001/XMLSchema#double"
	wktDT   = "http://strdf.di.uoa.gr/ontology#WKT"

	queryPrefixes = "PREFIX noa: <" + nsNOA + ">\nPREFIX mon: <" + nsMon + ">\n" +
		"PREFIX gn: <" + nsGN + ">\nPREFIX vb: <" + nsBench + ">\n" +
		"PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n" +
		"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)

// Stream identifiers: one PCG stream per generator.
const (
	streamCatalogue = 1 + iota
	streamSearchPool
	streamNearPool
	streamSequence
	streamExport
	streamFires
	streamAux
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x7e1e105<<8|stream))
}

// uniform draws from [lo, hi).
func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// ff formats a coordinate or value with the fixed precision the
// generators emit, so every parse of it round-trips exactly.
func ff(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// box is an axis-aligned lon/lat rectangle.
type box struct{ MinX, MinY, MaxX, MaxY float64 }

func (b box) wkt() string {
	return fmt.Sprintf("POLYGON ((%s %s, %s %s, %s %s, %s %s, %s %s))",
		ff(b.MinX), ff(b.MinY), ff(b.MaxX), ff(b.MinY), ff(b.MaxX), ff(b.MaxY),
		ff(b.MinX), ff(b.MaxY), ff(b.MinX), ff(b.MinY))
}

func (b box) intersects(o box) bool {
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// centredBox rounds its corners to the emitted precision, so the oracle
// reasons about exactly the rectangle the server parses.
func centredBox(cx, cy, hw, hh float64) box {
	rd := func(v float64) float64 { v, _ = strconv.ParseFloat(ff(v), 64); return v }
	return box{rd(cx - hw), rd(cy - hh), rd(cx + hw), rd(cy + hh)}
}

type point struct{ X, Y float64 }

func roundedPoint(x, y float64) point {
	rx, _ := strconv.ParseFloat(ff(x), 64)
	ry, _ := strconv.ParseFloat(ff(y), 64)
	return point{rx, ry}
}

// ntWriter renders N-Triples lines.
type ntWriter struct{ bytes.Buffer }

func (w *ntWriter) iri(s, p, o string) { fmt.Fprintf(w, "<%s> <%s> <%s> .\n", s, p, o) }
func (w *ntWriter) lit(s, p, lex, dt string) {
	if dt == "" {
		fmt.Fprintf(w, "<%s> <%s> %q .\n", s, p, lex)
		return
	}
	fmt.Fprintf(w, "<%s> <%s> %q^^<%s> .\n", s, p, lex, dt)
}

// ---------------------------------------------------------------------------
// catalogue-search: products, their hotspots, archaeological sites.

const (
	catProducts        = 3000
	catHotspotsPerProd = 6
	catSites           = 1500
	catSearchPool      = 3000 // distinct search texts (far more than the 128-entry result cache)
	catNearPool        = 1000 // distinct near texts
	catSearchLimit     = 20
)

var (
	satellites = []string{"Meteosat-8", "Meteosat-9", "Meteosat-10"}
	catEpoch   = time.Date(2007, 6, 1, 0, 0, 0, 0, time.UTC)
)

type product struct {
	IRI      string
	Sat      string
	Time     time.Time
	Cover    box
	Hotspots []hotspot
}

type hotspot struct {
	IRI string
	Box box
}

type site struct {
	IRI string
	At  point
}

type catalogue struct {
	Products []product
	Sites    []site
	Triples  int
	NT       []byte
}

func genCatalogue(seed uint64) *catalogue {
	r := newRand(seed, streamCatalogue)
	c := &catalogue{}
	// Acquisition slots are a permutation, so no two products share a
	// timestamp and ORDER BY ?t has one right answer.
	slots := r.Perm(catProducts)
	var w ntWriter
	for i := 0; i < catProducts; i++ {
		p := product{
			IRI:  fmt.Sprintf("%sproduct/P%05d", nsBench, i),
			Sat:  satellites[r.IntN(len(satellites))],
			Time: catEpoch.Add(time.Duration(slots[i])*20*time.Minute + time.Duration(r.IntN(600))*time.Second),
		}
		p.Cover = centredBox(uniform(r, 21.5, 26.5), uniform(r, 36.3, 39.7), uniform(r, 0.2, 0.8), uniform(r, 0.15, 0.6))
		w.iri(p.IRI, rdfType, nsNOA+"Product")
		w.lit(p.IRI, nsNOA+"satellite", p.Sat, "")
		w.lit(p.IRI, nsNOA+"acquiredAt", p.Time.Format(time.RFC3339), xsdDT)
		w.lit(p.IRI, nsNOA+"coverage", p.Cover.wkt(), wktDT)
		c.Triples += 4
		for k := 0; k < catHotspotsPerProd; k++ {
			h := hotspot{IRI: fmt.Sprintf("%shotspot/P%05d-%d", nsBench, i, k)}
			h.Box = centredBox(uniform(r, p.Cover.MinX, p.Cover.MaxX), uniform(r, p.Cover.MinY, p.Cover.MaxY),
				uniform(r, 0.004, 0.012), uniform(r, 0.003, 0.009))
			w.iri(h.IRI, rdfType, nsMon+"Hotspot")
			w.iri(h.IRI, nsNOA+"derivedFromProduct", p.IRI)
			w.lit(h.IRI, nsNOA+"hasGeometry", h.Box.wkt(), wktDT)
			w.lit(h.IRI, nsNOA+"hasConfidence", ff(uniform(r, 0.5, 0.99)), xsdDbl)
			c.Triples += 4
			p.Hotspots = append(p.Hotspots, h)
		}
		c.Products = append(c.Products, p)
	}
	for i := 0; i < catSites; i++ {
		s := site{IRI: fmt.Sprintf("%ssite/S%05d", nsBench, i), At: roundedPoint(uniform(r, 21, 27), uniform(r, 36, 40))}
		w.iri(s.IRI, rdfType, nsGN+"ArchaeologicalSite")
		w.lit(s.IRI, rdfsLbl, fmt.Sprintf("Site %d", i), "")
		w.lit(s.IRI, nsNOA+"hasGeometry", fmt.Sprintf("POINT (%s %s)", ff(s.At.X), ff(s.At.Y)), wktDT)
		c.Triples += 3
		c.Sites = append(c.Sites, s)
	}
	c.NT = w.Bytes()
	return c
}

// request is one operation of a workload's sequence.
type request struct {
	Class  string // search, near, export, page
	Query  string
	Format string // json (default), csv, geojson
	Pool   int    // index into the class's pool (search/near), page offset (page)
}

type searchSpec struct {
	Sat    string
	From   time.Time
	To     time.Time
	Window box
}

func (s searchSpec) query() string {
	return queryPrefixes + fmt.Sprintf(`SELECT ?img ?t WHERE {
  ?img a noa:Product .
  ?img noa:satellite %q .
  ?img noa:acquiredAt ?t .
  ?img noa:coverage ?cov .
  FILTER(?t >= "%s"^^xsd:dateTime && ?t < "%s"^^xsd:dateTime)
  FILTER(strdf:intersects(?cov, "%s"^^strdf:WKT))
} ORDER BY ?t LIMIT %d`, s.Sat, s.From.Format(time.RFC3339), s.To.Format(time.RFC3339), s.Window.wkt(), catSearchLimit)
}

type nearSpec struct {
	Product int
	Meters  float64
}

func (n nearSpec) query(c *catalogue) string {
	return queryPrefixes + fmt.Sprintf(`SELECT ?h ?site WHERE {
  ?h noa:derivedFromProduct <%s> .
  ?h noa:hasGeometry ?hg .
  ?site a gn:ArchaeologicalSite .
  ?site noa:hasGeometry ?sg .
  FILTER(strdf:distance(?hg, ?sg) < %g)
}`, c.Products[n.Product].IRI, n.Meters)
}

func genSearchPool(seed uint64) []searchSpec {
	r := newRand(seed, streamSearchPool)
	span := time.Duration(catProducts) * 20 * time.Minute
	out := make([]searchSpec, catSearchPool)
	for i := range out {
		from := catEpoch.Add(time.Duration(r.Int64N(int64(span))).Truncate(time.Minute))
		days := 3 + r.IntN(8)
		out[i] = searchSpec{
			Sat:    satellites[r.IntN(len(satellites))],
			From:   from,
			To:     from.Add(time.Duration(days) * 24 * time.Hour),
			Window: centredBox(uniform(r, 21.5, 26.5), uniform(r, 36.5, 39.5), uniform(r, 0.3, 1.0), uniform(r, 0.25, 0.8)),
		}
	}
	return out
}

func genNearPool(seed uint64) []nearSpec {
	r := newRand(seed, streamNearPool)
	out := make([]nearSpec, catNearPool)
	for i := range out {
		out[i] = nearSpec{Product: r.IntN(catProducts), Meters: []float64{3000, 6000}[r.IntN(2)]}
	}
	return out
}

// genCatalogueSequence draws the fixed request sequence: about 90%
// search and 10% near, each a Zipf-weighted pick from its pool.
func genCatalogueSequence(seed uint64, c *catalogue, searches []searchSpec, nears []nearSpec, n int) []request {
	r := newRand(seed, streamSequence)
	// A flattened head (v = 20): by the harmonic sums the 128 most
	// popular texts of a pool draw about 41% of the searches and 52% of
	// the nears. Both classes share the 128-entry result cache, so most
	// reads miss it (README.md gives the measured hit ratio).
	zs := rand.NewZipf(r, 1.01, 20, uint64(len(searches)-1))
	zn := rand.NewZipf(r, 1.01, 20, uint64(len(nears)-1))
	// Zipf ranks map onto a seeded permutation, so the popular texts
	// differ from seed to seed.
	ps, pn := r.Perm(len(searches)), r.Perm(len(nears))
	out := make([]request, n)
	for i := range out {
		if r.IntN(10) == 0 {
			k := pn[zn.Uint64()]
			out[i] = request{Class: "near", Query: nears[k].query(c), Pool: k}
		} else {
			k := ps[zs.Uint64()]
			out[i] = request{Class: "search", Query: searches[k].query(), Pool: k}
		}
	}
	return out
}

// expectedSearch is the search oracle: rectangle and time arithmetic
// over the generated footprints.
func expectedSearch(c *catalogue, s searchSpec) []string {
	var hits []product
	for _, p := range c.Products {
		if p.Sat == s.Sat && !p.Time.Before(s.From) && p.Time.Before(s.To) && p.Cover.intersects(s.Window) {
			hits = append(hits, p)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].Time.Before(hits[j].Time) })
	if len(hits) > catSearchLimit {
		hits = hits[:catSearchLimit]
	}
	out := make([]string, len(hits))
	for i, p := range hits {
		out[i] = p.IRI
	}
	return out
}

// nearAnswer is the near oracle's verdict: pairs that must be returned
// and pairs too close to the threshold to call (within 1%).
type nearAnswer struct {
	Must  map[string]bool // "hotspot|site"
	Maybe map[string]bool
}

func expectedNear(c *catalogue, n nearSpec) nearAnswer {
	a := nearAnswer{Must: map[string]bool{}, Maybe: map[string]bool{}}
	for _, h := range c.Products[n.Product].Hotspots {
		for _, s := range c.Sites {
			d := haversineToBox(s.At, h.Box)
			key := h.IRI + "|" + s.IRI
			switch {
			case math.Abs(d-n.Meters) <= 0.01*n.Meters:
				a.Maybe[key] = true
			case d < n.Meters:
				a.Must[key] = true
			}
		}
	}
	return a
}

// ---------------------------------------------------------------------------
// bulk-export: observations with point geometries.

const (
	exportRows     = 50000
	exportPageSize = 1000
)

// exportFormats is the fixed per-round format rotation of the export
// requests: mostly SPARQL-JSON (the default), plus CSV and GeoJSON.
var exportFormats = []string{"json", "csv", "json", "geojson"}

type exportData struct {
	Triples  int
	NT       []byte
	Checksum uint64
}

func genExport(seed uint64) *exportData {
	r := newRand(seed, streamExport)
	e := &exportData{}
	var w ntWriter
	w.Grow(exportRows * 330)
	for i := 0; i < exportRows; i++ {
		iri := fmt.Sprintf("%sobs/O%06d", nsBench, i)
		pt := roundedPoint(uniform(r, 21, 27), uniform(r, 36, 40))
		v := uniform(r, 280, 340)
		w.iri(iri, rdfType, nsBench+"Observation")
		w.lit(iri, nsNOA+"hasGeometry", fmt.Sprintf("POINT (%s %s)", ff(pt.X), ff(pt.Y)), wktDT)
		w.lit(iri, nsBench+"brightness", ff(v), xsdDbl)
		e.Triples += 3
		e.Checksum += rowHash(iri, pt.X, pt.Y, v)
	}
	e.NT = w.Bytes()
	return e
}

// exportQuery is the full export; tag makes every request text unique
// (a comment), so neither the result cache nor an ETag can answer it.
func exportQuery(tag int) string {
	return queryPrefixes + fmt.Sprintf(`# request %d
SELECT ?o ?g ?v WHERE {
  ?o a vb:Observation .
  ?o noa:hasGeometry ?g .
  ?o vb:brightness ?v .
}`, tag)
}

func pageQuery(tag, offset int) string {
	return exportQuery(tag) + fmt.Sprintf(" LIMIT %d OFFSET %d", exportPageSize, offset)
}

// exportRound is one whole round of the bulk-export workload: the
// format rotation of full exports interleaved with the pages that
// cover the same result.
func exportRound(round int) []request {
	pages := exportRows / exportPageSize
	var out []request
	tag := round * 1000
	per := pages / len(exportFormats)
	for i, f := range exportFormats {
		tag++
		out = append(out, request{Class: "export", Query: exportQuery(tag), Format: f})
		hi := (i + 1) * per
		if i == len(exportFormats)-1 {
			hi = pages
		}
		for p := i * per; p < hi; p++ {
			tag++
			out = append(out, request{Class: "page", Query: pageQuery(tag, p*exportPageSize), Pool: p})
		}
	}
	return out
}

// rowHash is the order-independent export checksum term of one row.
func rowHash(iri string, x, y, v float64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(iri)
	for _, f := range []float64{x, y, v} {
		mix("|" + strconv.FormatInt(int64(math.Round(f*1e6)), 10))
	}
	return h
}

// ---------------------------------------------------------------------------
// fire-feed: seeded SEVIRI frames and auxiliary sites.

const (
	feedAcquisitions = 16  // acquisitions per episode (fixed work)
	feedFrameSize    = 128 // pixels per side
	feedAuxSites     = 1500
	feedAuxCols      = 50      // the sites' jittered grid is 50 × 30 cells
	feedArchive      = 3000    // archived products already in the store
	feedMapRadius    = 10000.0 // metres
)

type feedData struct {
	AuxNT   []byte
	AuxSize int
	// Aux holds every feature of the fire map's four auxiliary layers,
	// and Land the landmass the refinement tests hotspots against.
	Aux  []auxFeature
	Land shape
}

// auxFeature is one feature of a fire map's auxiliary layers.
type auxFeature struct {
	layer, iri string
	s          shape
}

// mapLayers lists the linked-data features of the fire map's auxiliary
// layers, from the scene they were generated from.
func mapLayers() []auxFeature {
	var out []auxFeature
	for _, s := range scene.ArchaeologicalSites() {
		out = append(out, auxFeature{"sites", linkeddata.GeoNamesNS + "site/" + s.Name, geoShape(s.Loc)})
	}
	for _, t := range scene.Towns() {
		out = append(out, auxFeature{"towns", linkeddata.GeoNamesNS + "town/" + t.Name, geoShape(t.Loc)})
	}
	for _, r := range scene.Roads() {
		out = append(out, auxFeature{"roads", linkeddata.LGDNS + "road/" + r.Name, geoShape(r.Path)})
	}
	for i, f := range scene.Forests() {
		out = append(out, auxFeature{"forests", fmt.Sprintf("%sarea/%d", linkeddata.CorineNS, i+1), geoShape(f.Area)})
	}
	return out
}

func genFires(seed uint64) []scene.FireEvent {
	r := newRand(seed, streamFires)
	// Many small fires with fixed start steps, intensity and growth, and
	// a fixed number of each kind: inland (never clipped), on the
	// coastline (clipped by the refinement) and sea glints (rejected).
	// Positions are stratified — one fire per grid cell, cells in seeded
	// order; coastal fires spread evenly along the coast — so the seed
	// moves where fires burn, not how much burns, how much the fires
	// merge or how much the refinement clips.
	const inland, coastal, sea = 18, 6, 6
	const margin = 0.3 // degrees kept from the coast by inland fires and glints
	clear := func(p geo.Point, land bool) bool {
		for _, d := range [][2]float64{{0, 0}, {margin, 0}, {-margin, 0}, {0, margin}, {0, -margin}} {
			if scene.OnLandAnalytic(geo.Point{X: p.X + d[0], Y: p.Y + d[1]}) != land {
				return false
			}
		}
		return true
	}
	var fires []scene.FireEvent
	add := func(p geo.Point, spurious bool) {
		fires = append(fires, scene.FireEvent{
			Name:      fmt.Sprintf("F%d", len(fires)),
			Loc:       p,
			StartStep: len(fires) % (feedAcquisitions / 2),
			PeakDT:    45,
			Growth:    0.12,
			Spurious:  spurious,
		})
	}
	const cols, rows = 9, 6
	cellW, cellH := 5.4/cols, 3.4/rows
	cells := r.Perm(cols * rows)
	place := func(n int, land bool) {
		for _, c := range cells {
			if n == 0 {
				return
			}
			x0, y0 := 21.3+float64(c%cols)*cellW, 36.3+float64(c/cols)*cellH
			for try := 0; try < 200; try++ {
				if p := (geo.Point{X: x0 + r.Float64()*cellW, Y: y0 + r.Float64()*cellH}); clear(p, land) {
					add(p, !land)
					n--
					break
				}
			}
		}
	}
	place(inland, true)
	coast := scene.Landmass().Exterior.Coords
	per := (len(coast) - 1) / coastal
	for i := 0; i < coastal; i++ {
		add(coast[i*per+r.IntN(per)], false)
	}
	place(sea, false)
	return fires
}

// feedEpisode is one episode's acquisitions.
type feedEpisode struct {
	Frames []*raster.Frame
	// FirePixels[i] is the oracle's fire-pixel count for frame i.
	FirePixels []int
}

// genEpisode draws the frames of episode ep (0–255). Each episode of a
// run burns its own fires, so a run's figures average over several fire
// layouts instead of repeating one.
func genEpisode(seed uint64, ep int) *feedEpisode {
	es := seed<<8 | uint64(ep&0xff)
	start := raster.DefaultStart.Add(time.Duration(es%1000) * 24 * time.Hour)
	frames := raster.Generate(raster.GenOptions{
		Width: feedFrameSize, Height: feedFrameSize, Steps: feedAcquisitions,
		Start: start, Fires: genFires(es), Seed: es,
	})
	e := &feedEpisode{Frames: frames}
	for _, f := range frames {
		e.FirePixels = append(e.FirePixels, countFirePixels(f))
	}
	return e
}

// genFeed draws the feed's set-up data: the auxiliary sites and the
// archive, next to the linked open data layers.
func genFeed(seed uint64, auxNT []byte, auxTriples int) *feedData {
	d := &feedData{Aux: mapLayers(), Land: geoShape(scene.Landmass())}
	r := newRand(seed, streamAux)
	var w ntWriter
	w.Write(auxNT)
	d.AuxSize = auxTriples
	// Auxiliary sites on a jittered grid (one per cell), so the number
	// near any fire hardly depends on the seed.
	for i := 0; i < feedAuxSites; i++ {
		iri := fmt.Sprintf("%sauxsite/A%04d", nsBench, i)
		cx, cy := i%feedAuxCols, i/feedAuxCols
		pt := roundedPoint(21+(float64(cx)+r.Float64())*6/feedAuxCols, 36+(float64(cy)+r.Float64())*4/(feedAuxSites/feedAuxCols))
		w.iri(iri, rdfType, nsGN+"ArchaeologicalSite")
		w.lit(iri, rdfsLbl, fmt.Sprintf("Aux site %d", i), "")
		w.lit(iri, nsNOA+"hasGeometry", fmt.Sprintf("POINT (%s %s)", ff(pt.X), ff(pt.Y)), wktDT)
		d.AuxSize += 3
		d.Aux = append(d.Aux, auxFeature{"sites", iri, shape{parts: [][]point{{pt}}}})
	}
	// The archive of earlier acquisitions: catalogue metadata the feed's
	// writes land next to, so every snapshot rebuild and checkpoint pays
	// for a store of realistic size.
	for i := 0; i < feedArchive; i++ {
		iri := fmt.Sprintf("%sarchive/A%05d", nsBench, i)
		cover := centredBox(uniform(r, 21.5, 26.5), uniform(r, 36.3, 39.7), uniform(r, 0.2, 0.8), uniform(r, 0.15, 0.6))
		w.iri(iri, rdfType, nsNOA+"Product")
		w.lit(iri, nsNOA+"satellite", satellites[r.IntN(len(satellites))], "")
		w.lit(iri, nsNOA+"acquiredAt", catEpoch.Add(time.Duration(i)*15*time.Minute).Format(time.RFC3339), xsdDT)
		w.lit(iri, nsNOA+"coverage", cover.wkt(), wktDT)
		d.AuxSize += 4
	}
	d.AuxNT = w.Bytes()
	return d
}

// Bi-spectral thresholds of the NOA fire test (kelvin), restated here
// so the oracle does not borrow the classifier it checks.
const (
	fireAbsK   = 318
	fireDeltaK = 8
)

// countFirePixels is the benchmark's own bi-spectral threshold loop.
func countFirePixels(f *raster.Frame) int {
	ir39, ir108 := f.Bands[raster.BandIR39], f.Bands[raster.BandIR108]
	n := 0
	for y := 0; y < ir39.Height(); y++ {
		for x := 0; x < ir39.Width(); x++ {
			t39, t108 := ir39.At2(y, x), ir108.At2(y, x)
			if t39 >= fireAbsK && t39-t108 >= fireDeltaK {
				n++
			}
		}
	}
	return n
}

// mapQuery is one product's fire map: its hotspots plus the four
// auxiliary layers within the map radius of any of them.
func mapQuery(productIRI string) string {
	layer := func(name, class string) string {
		return fmt.Sprintf(`  UNION {
    ?h noa:derivedFromProduct <%s> . ?h a mon:Hotspot . ?h noa:hasGeometry ?hg .
    ?x a <%s> . ?x noa:hasGeometry ?g .
    FILTER(strdf:distance(?hg, ?g) < %g)
    BIND(%q AS ?layer)
  }
`, productIRI, class, feedMapRadius, name)
	}
	return queryPrefixes + fmt.Sprintf(`SELECT DISTINCT ?x ?g ?layer WHERE {
  {
    ?x noa:derivedFromProduct <%s> . ?x a mon:Hotspot . ?x noa:hasGeometry ?g .
    BIND("hotspots" AS ?layer)
  }
`, productIRI) +
		layer("towns", "http://sws.geonames.org/teleios/PopulatedPlace") +
		layer("sites", "http://sws.geonames.org/teleios/ArchaeologicalSite") +
		layer("roads", "http://linkedgeodata.org/teleios/Road") +
		layer("forests", "http://teleios.di.uoa.gr/landcover#Forest") +
		"}"
}
