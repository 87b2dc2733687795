package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"erasmus/internal/obs"
)

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape is one registry's Prometheus exposition, read back as a client
// would see it: series → value, with histogram buckets kept by family.
type scrape struct {
	series  map[string]float64             // "name{labels}" → value
	buckets map[string]map[float64]float64 // histogram family → le → cumulative count
}

func scrapeRegistry(r *obs.Registry) scrape {
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	s := scrape{series: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		key := line[:i]
		s.series[key] += v
		name, labels, _ := strings.Cut(key, "{")
		if fam, ok := strings.CutSuffix(name, "_bucket"); ok {
			le := labelValue(labels, "le")
			b, err := strconv.ParseFloat(le, 64)
			if le == "+Inf" {
				b, err = math.Inf(1), nil
			}
			if err == nil {
				if s.buckets[fam] == nil {
					s.buckets[fam] = map[float64]float64{}
				}
				s.buckets[fam][b] += v
			}
		}
	}
	return s
}

func labelValue(labels, name string) string {
	for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == name {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// family sums every series of the named family.
func (s scrape) family(name string) (sum float64) {
	for key, v := range s.series {
		if n, _, _ := strings.Cut(key, "{"); n == name {
			sum += v
		}
	}
	return sum
}

// merge adds another scrape's series and buckets into s.
func (s scrape) merge(o scrape) {
	for k, v := range o.series {
		s.series[k] += v
	}
	for fam, bs := range o.buckets {
		if s.buckets[fam] == nil {
			s.buckets[fam] = map[float64]float64{}
		}
		for le, v := range bs {
			s.buckets[fam][le] += v
		}
	}
}

// histQuantile estimates the q-quantile of a histogram family the way
// Prometheus' histogram_quantile does: linear within the bucket that
// holds the rank, lower edge 0 for the first bucket.
func (s scrape) histQuantile(fam string, q float64) float64 {
	bs := s.buckets[fam]
	les := make([]float64, 0, len(bs))
	for le := range bs {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || bs[les[len(les)-1]] == 0 {
		return 0
	}
	rank := q * bs[les[len(les)-1]]
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := bs[le]
		if cum >= rank {
			if math.IsInf(le, 1) {
				return prevLE
			}
			if cum == prevCum {
				return le
			}
			return prevLE + (le-prevLE)*(rank-prevCum)/(cum-prevCum)
		}
		prevLE, prevCum = le, cum
	}
	return prevLE
}
