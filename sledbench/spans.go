package main

import "time"

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the recorder's epoch. Parent is
// the index of the enclosing span in the same recorder's list, or -1.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, so untraced loops share the traced loops' code.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span starting now and returns its handle.
func (r *recorder) begin(name string, req int64, parent int32) int32 {
	if r == nil {
		return -1
	}
	return r.add(name, req, parent, r.now())
}

// add opens a span with an explicit start time.
func (r *recorder) add(name string, req int64, parent int32, start int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start})
	return int32(len(r.spans) - 1)
}

// end closes the span now.
func (r *recorder) end(h int32) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h].End = r.now()
}

// endAt closes the span at an explicit time.
func (r *recorder) endAt(h int32, t int64) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h].End = t
}

// layerStats aggregates spans by name.
type layerStats struct {
	count int
	total float64   // summed durations, seconds
	self  float64   // summed self times, seconds
	durs  []float64 // each span's duration, seconds
}

// aggregate merges the recorders' spans into one list (re-basing parent
// indices) and sums duration and self time per span name. A span's self
// time is its duration minus its children's durations.
func aggregate(recs []*recorder) ([]span, map[string]*layerStats) {
	var all []span
	for _, r := range recs {
		base := int32(len(all))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	child := make([]float64, len(all))
	for _, s := range all {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	stats := map[string]*layerStats{}
	for i, s := range all {
		st := stats[s.Name]
		if st == nil {
			st = &layerStats{}
			stats[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9
		st.count++
		st.total += d
		st.self += d - child[i]
		st.durs = append(st.durs, d)
	}
	return all, stats
}

// get returns the stats for name, or an empty value when no span had it.
func get(stats map[string]*layerStats, name string) *layerStats {
	if st := stats[name]; st != nil {
		return st
	}
	return &layerStats{}
}
