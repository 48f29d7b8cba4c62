package store

// History and trend queries. The archive stores whole result documents;
// queries parse the payloads back into bench.ResultsJSON and slice them
// along (experiment, scheme, threads) — the axes the paper's comparative
// claims live on. A trend series is one metric of one point tracked
// across archive history, ordered by sequence number: the raw material
// for the rolling-median gate and the changepoint scan in trend.go.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"stacktrack/internal/bench"
)

// Query filters history. Zero fields match everything.
type Query struct {
	Experiment string `json:"experiment,omitempty"`
	Scheme     string `json:"scheme,omitempty"` // point series name, e.g. "StackTrack"
	Threads    int    `json:"threads,omitempty"`
	LastN      int    `json:"last_n,omitempty"` // most recent N records (0 = all)
}

// HistoryPoint is one measurement point of one archived run, filtered
// to the query's axes.
type HistoryPoint struct {
	Series     string  `json:"series"`
	Threads    int     `json:"threads"`
	Ops        uint64  `json:"ops"`
	Throughput float64 `json:"throughput"`
}

// HistoryEntry is one archived run in a history response.
type HistoryEntry struct {
	Meta   RecordMeta     `json:"meta"`
	Points []HistoryPoint `json:"points,omitempty"`
}

// matchMeta applies the cheap (metadata-only) parts of q. A record's
// Experiment field may be a comma-joined list; empty axes match all.
func matchMeta(m *RecordMeta, q Query) bool {
	if q.Experiment != "" && m.Experiment != q.Experiment &&
		!slices.Contains(strings.Split(m.Experiment, ","), q.Experiment) {
		return false
	}
	if q.Scheme != "" && len(m.Schemes) > 0 && !slices.Contains(m.Schemes, q.Scheme) {
		return false
	}
	return q.Threads <= 0 || len(m.Threads) == 0 || slices.Contains(m.Threads, q.Threads)
}

// Records returns the metadata of matching records, ascending seq.
func (s *Store) Records(q Query) []RecordMeta {
	s.mu.RLock()
	var out []RecordMeta
	for _, r := range s.recs {
		if matchMeta(&r.meta, q) {
			out = append(out, r.meta)
		}
	}
	s.mu.RUnlock()
	if q.LastN > 0 && len(out) > q.LastN {
		out = out[len(out)-q.LastN:]
	}
	return out
}

// load reads matching records and their payloads in one critical
// section, so a compaction running between a metadata snapshot and the
// payload reads cannot drop records out from under a query.
func (s *Store) load(q Query) ([]RecordMeta, [][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var recs []*record
	for _, r := range s.recs {
		if matchMeta(&r.meta, q) {
			recs = append(recs, r)
		}
	}
	if q.LastN > 0 && len(recs) > q.LastN {
		recs = recs[len(recs)-q.LastN:]
	}
	metas := make([]RecordMeta, len(recs))
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		b, err := r.payload()
		if err != nil {
			return nil, nil, err
		}
		metas[i], payloads[i] = r.meta, b
	}
	return metas, payloads, nil
}

// History returns matching archived runs with their points filtered to
// the query's scheme/threads, ascending seq.
func (s *Store) History(q Query) ([]HistoryEntry, error) {
	metas, payloads, err := s.load(q)
	if err != nil {
		return nil, err
	}
	out := make([]HistoryEntry, 0, len(metas))
	for i, m := range metas {
		doc, err := bench.DecodeResults(payloads[i])
		if err != nil {
			return nil, fmt.Errorf("store: record %d: %w", m.Seq, err)
		}
		entry := HistoryEntry{Meta: m}
		for _, x := range doc.Experiments {
			if q.Experiment != "" && x.ID != q.Experiment && x.Name != q.Experiment {
				continue
			}
			for i := range x.Points {
				p := &x.Points[i]
				if q.Scheme != "" && p.Series != q.Scheme {
					continue
				}
				if q.Threads > 0 && p.Threads != q.Threads {
					continue
				}
				entry.Points = append(entry.Points, HistoryPoint{
					Series: p.Series, Threads: p.Threads,
					Ops: p.Ops, Throughput: p.Throughput,
				})
			}
		}
		out = append(out, entry)
	}
	return out, nil
}

// TrendPoint is one archived value of one metric.
type TrendPoint struct {
	Seq    uint64  `json:"seq"`
	UnixMs int64   `json:"unix_ms"`
	Commit string  `json:"commit,omitempty"`
	Value  float64 `json:"value"`
}

// TrendSeries is one metric of one (experiment, scheme, threads) point
// across history, ascending seq.
type TrendSeries struct {
	Experiment string       `json:"experiment"`
	Series     string       `json:"series"`
	Threads    int          `json:"threads"`
	Metric     string       `json:"metric"`
	Points     []TrendPoint `json:"points"`
}

// seriesKey identifies one trend series.
type seriesKey struct {
	experiment, series string
	threads            int
	metric             string
}

// pointMetrics flattens one result point into its trendable metrics:
// throughput, ops, and every derived rate.
func pointMetrics(p *bench.PointJSON) map[string]float64 {
	out := map[string]float64{
		"throughput": p.Throughput,
		"ops":        float64(p.Ops),
	}
	for name, v := range p.Derived {
		out["derived."+name] = v
	}
	return out
}

// Trends extracts every matching trend series from the archive.
func (s *Store) Trends(q Query) ([]TrendSeries, error) {
	metas, payloads, err := s.load(q)
	if err != nil {
		return nil, err
	}
	series := map[seriesKey][]TrendPoint{}
	for i, m := range metas {
		doc, err := bench.DecodeResults(payloads[i])
		if err != nil {
			return nil, fmt.Errorf("store: record %d: %w", m.Seq, err)
		}
		for _, x := range doc.Experiments {
			if q.Experiment != "" && x.ID != q.Experiment && x.Name != q.Experiment {
				continue
			}
			for i := range x.Points {
				p := &x.Points[i]
				if q.Scheme != "" && p.Series != q.Scheme {
					continue
				}
				if q.Threads > 0 && p.Threads != q.Threads {
					continue
				}
				for metric, v := range pointMetrics(p) {
					k := seriesKey{x.ID, p.Series, p.Threads, metric}
					series[k] = append(series[k], TrendPoint{
						Seq: m.Seq, UnixMs: m.UnixMs, Commit: m.Commit, Value: v,
					})
				}
			}
		}
	}
	out := make([]TrendSeries, 0, len(series))
	for k, pts := range series {
		out = append(out, TrendSeries{
			Experiment: k.experiment, Series: k.series,
			Threads: k.threads, Metric: k.metric, Points: pts,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Series != b.Series {
			return a.Series < b.Series
		}
		if a.Threads != b.Threads {
			return a.Threads < b.Threads
		}
		return a.Metric < b.Metric
	})
	return out, nil
}

// DescribePayload inspects a result document and fills the metadata the
// archive can derive from it: experiment IDs, schema version, and the
// scheme/thread axes its points cover. Callers add provenance (source,
// key, commit) on top.
func DescribePayload(payload []byte) (RecordMeta, error) {
	doc, err := bench.DecodeResults(payload)
	if err != nil {
		return RecordMeta{}, err
	}
	if len(doc.Experiments) == 0 {
		return RecordMeta{}, fmt.Errorf("store: document holds no experiments")
	}
	meta := RecordMeta{Schema: doc.Schema}
	var ids []string
	schemes := map[string]bool{}
	threads := map[int]bool{}
	for _, x := range doc.Experiments {
		id := x.ID
		if id == "" {
			id = x.Name
		}
		ids = append(ids, id)
		for i := range x.Points {
			schemes[x.Points[i].Series] = true
			threads[x.Points[i].Threads] = true
		}
	}
	meta.Experiment = strings.Join(ids, ",")
	for sc := range schemes {
		meta.Schemes = append(meta.Schemes, sc)
	}
	sort.Strings(meta.Schemes)
	for t := range threads {
		meta.Threads = append(meta.Threads, t)
	}
	sort.Ints(meta.Threads)
	return meta, nil
}
