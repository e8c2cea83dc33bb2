package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// The benchmark's own geometry, kept apart from internal/geo so that the
// oracles do not share code with what they check.

const earthRadius = 6378137.0 // metres (WGS84 semi-major axis)

func rad(d float64) float64 { return d * math.Pi / 180 }

// haversine is the great-circle distance in metres.
func haversine(a, b point) float64 {
	dLat, dLon := rad(b.Y-a.Y), rad(b.X-a.X)
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(a.Y))*math.Cos(rad(b.Y))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}

// haversineToBox is the distance from a point to the nearest point of a
// lon/lat rectangle (0 inside it).
func haversineToBox(p point, b box) float64 {
	q := point{math.Max(b.MinX, math.Min(p.X, b.MaxX)), math.Max(b.MinY, math.Min(p.Y, b.MaxY))}
	if q == p {
		return 0
	}
	return haversine(p, q)
}

// shape is a geometry as rings/lines of lon/lat points; polygon marks
// whether the parts are closed rings with an inside.
type shape struct {
	parts   [][]point
	polygon bool
}

// shapeDistance is the planar distance in metres between two shapes in a
// local equirectangular frame centred between them: 0 when one contains
// a vertex of the other or their edges cross, otherwise the least
// vertex-to-edge distance either way.
func shapeDistance(a, b shape) float64 {
	var cx, cy float64
	n := 0
	for _, s := range []shape{a, b} {
		for _, part := range s.parts {
			for _, p := range part {
				cx, cy, n = cx+p.X, cy+p.Y, n+1
			}
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	cx, cy = cx/float64(n), cy/float64(n)
	k := math.Cos(rad(cy))
	proj := func(s shape) [][]point {
		out := make([][]point, len(s.parts))
		for i, part := range s.parts {
			for _, p := range part {
				out[i] = append(out[i], point{earthRadius * rad(p.X-cx) * k, earthRadius * rad(p.Y-cy)})
			}
		}
		return out
	}
	pa, pb := proj(a), proj(b)
	if (a.polygon && anyVertexInside(pb, pa)) || (b.polygon && anyVertexInside(pa, pb)) || edgesCross(pa, pb) {
		return 0
	}
	return math.Min(vertexEdgeMin(pa, pb), vertexEdgeMin(pb, pa))
}

func anyVertexInside(pts, rings [][]point) bool {
	for _, part := range pts {
		for _, p := range part {
			in := false
			for _, ring := range rings {
				for i, j := 0, len(ring)-1; i < len(ring); j, i = i, i+1 {
					if (ring[i].Y > p.Y) != (ring[j].Y > p.Y) &&
						p.X < (ring[j].X-ring[i].X)*(p.Y-ring[i].Y)/(ring[j].Y-ring[i].Y)+ring[i].X {
						in = !in
					}
				}
			}
			if in {
				return true
			}
		}
	}
	return false
}

// edgesCross reports whether an edge of a crosses or touches an edge of b.
func edgesCross(a, b [][]point) bool {
	orient := func(p, q, r point) float64 { return (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X) }
	// on reports whether r, collinear with p and q, lies between them.
	on := func(p, q, r point) bool {
		return math.Min(p.X, q.X) <= r.X && r.X <= math.Max(p.X, q.X) &&
			math.Min(p.Y, q.Y) <= r.Y && r.Y <= math.Max(p.Y, q.Y)
	}
	for _, pa := range a {
		for i := 1; i < len(pa); i++ {
			for _, pb := range b {
				for j := 1; j < len(pb); j++ {
					a0, a1, b0, b1 := pa[i-1], pa[i], pb[j-1], pb[j]
					d1, d2 := orient(b0, b1, a0), orient(b0, b1, a1)
					d3, d4 := orient(a0, a1, b0), orient(a0, a1, b1)
					if d1*d2 < 0 && d3*d4 < 0 {
						return true
					}
					// An endpoint on the other segment; this also keeps
					// collinear segments that do not overlap apart.
					if d1 == 0 && on(b0, b1, a0) || d2 == 0 && on(b0, b1, a1) ||
						d3 == 0 && on(a0, a1, b0) || d4 == 0 && on(a0, a1, b1) {
						return true
					}
				}
			}
		}
	}
	return false
}

func vertexEdgeMin(pts, lines [][]point) float64 {
	best := math.Inf(1)
	for _, part := range pts {
		for _, p := range part {
			for _, line := range lines {
				if len(line) == 1 {
					best = math.Min(best, math.Hypot(p.X-line[0].X, p.Y-line[0].Y))
				}
				for i := 1; i < len(line); i++ {
					best = math.Min(best, segDist(p, line[i-1], line[i]))
				}
			}
		}
	}
	return best
}

func segDist(p, a, b point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	t := 0.0
	if l := dx*dx + dy*dy; l > 0 {
		t = math.Max(0, math.Min(1, ((p.X-a.X)*dx+(p.Y-a.Y)*dy)/l))
	}
	return math.Hypot(p.X-(a.X+t*dx), p.Y-(a.Y+t*dy))
}

// geoShape converts a generated geometry (scene layers, detected
// hotspots) into a shape.
func geoShape(g geo.Geometry) shape {
	pts := func(cs []geo.Point) []point {
		out := make([]point, len(cs))
		for i, c := range cs {
			out[i] = point{c.X, c.Y}
		}
		return out
	}
	polygon := func(p geo.Polygon) [][]point {
		parts := [][]point{pts(p.Exterior.Coords)}
		for _, h := range p.Holes {
			parts = append(parts, pts(h.Coords))
		}
		return parts
	}
	switch g := g.(type) {
	case geo.Point:
		return shape{parts: [][]point{{{g.X, g.Y}}}}
	case geo.LineString:
		return shape{parts: [][]point{pts(g.Coords)}}
	case geo.Polygon:
		return shape{parts: polygon(g), polygon: true}
	case geo.MultiPolygon:
		var s shape
		for _, p := range g.Polygons {
			s.parts = append(s.parts, polygon(p)...)
		}
		s.polygon = true
		return s
	}
	panic(fmt.Sprintf("geoShape: unexpected geometry %T", g))
}

// bounds is the lon/lat rectangle around a shape.
func (s shape) bounds() box {
	b := box{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for _, part := range s.parts {
		for _, p := range part {
			b = box{math.Min(b.MinX, p.X), math.Min(b.MinY, p.Y), math.Max(b.MaxX, p.X), math.Max(b.MaxY, p.Y)}
		}
	}
	return b
}

// apart reports whether two rectangles in the Greek region lie more than
// m metres apart, by a lower bound on the distance: a degree of latitude
// spans at least 110.5 km and one of longitude at least 80 km below 43°N.
func apart(a, b box, m float64) bool {
	dx := math.Max(0, math.Max(a.MinX-b.MaxX, b.MinX-a.MaxX)) * 80000
	dy := math.Max(0, math.Max(a.MinY-b.MaxY, b.MinY-a.MaxY)) * 110500
	return math.Hypot(dx, dy) > m
}

// geoJSONShape decodes a GeoJSON geometry object.
func geoJSONShape(raw json.RawMessage) (shape, error) {
	var g struct {
		Type        string          `json:"type"`
		Coordinates json.RawMessage `json:"coordinates"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return shape{}, err
	}
	toPts := func(cs [][]float64) []point {
		out := make([]point, len(cs))
		for i, c := range cs {
			out[i] = point{c[0], c[1]}
		}
		return out
	}
	var s shape
	switch g.Type {
	case "Point":
		var c []float64
		if err := json.Unmarshal(g.Coordinates, &c); err != nil || len(c) < 2 {
			return s, fmt.Errorf("bad Point coordinates")
		}
		s.parts = [][]point{{{c[0], c[1]}}}
	case "LineString":
		var cs [][]float64
		if err := json.Unmarshal(g.Coordinates, &cs); err != nil {
			return s, err
		}
		s.parts = [][]point{toPts(cs)}
	case "Polygon":
		var rings [][][]float64
		if err := json.Unmarshal(g.Coordinates, &rings); err != nil {
			return s, err
		}
		for _, r := range rings {
			s.parts = append(s.parts, toPts(r))
		}
		s.polygon = true
	case "MultiPolygon":
		var polys [][][][]float64
		if err := json.Unmarshal(g.Coordinates, &polys); err != nil {
			return s, err
		}
		for _, p := range polys {
			for _, r := range p {
				s.parts = append(s.parts, toPts(r))
			}
		}
		s.polygon = true
	default:
		return s, fmt.Errorf("unexpected geometry type %q", g.Type)
	}
	return s, nil
}

// parseWKTPoint reads "POINT (x y)" with an optional ";srid" suffix.
func parseWKTPoint(s string) (point, error) {
	if i := strings.IndexByte(s, ';'); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "POINT") {
		return point{}, fmt.Errorf("not a POINT: %q", s)
	}
	s = strings.Trim(strings.TrimSpace(s[len("POINT"):]), "()")
	f := strings.Fields(s)
	if len(f) != 2 {
		return point{}, fmt.Errorf("bad POINT %q", s)
	}
	x, err1 := strconv.ParseFloat(f[0], 64)
	y, err2 := strconv.ParseFloat(f[1], 64)
	if err1 != nil || err2 != nil {
		return point{}, fmt.Errorf("bad POINT %q", s)
	}
	return point{x, y}, nil
}
