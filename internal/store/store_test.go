package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stacktrack/internal/bench"
)

// testDoc builds a minimal valid result document for experiment id with
// one StackTrack point at the given throughput.
func testDoc(t testing.TB, id string, threads int, tput float64) []byte {
	t.Helper()
	return testDocSeries(t, id, []string{"StackTrack"}, []int{threads}, tput)
}

// testDocSeries builds a document with one point per (series, threads)
// pair, all at the given throughput.
func testDocSeries(t testing.TB, id string, series []string, threads []int, tput float64) []byte {
	t.Helper()
	x := &bench.ExperimentJSON{
		Schema: bench.SchemaVersion,
		Name:   "experiment " + id,
		ID:     id,
	}
	for _, s := range series {
		for _, n := range threads {
			x.Points = append(x.Points, bench.PointJSON{
				Series: s, Threads: n,
				Ops:        uint64(tput * 10),
				Throughput: tput,
				Derived:    map[string]float64{"aborts_per_kseg": 2.5},
			})
		}
	}
	doc := &bench.ResultsJSON{Schema: bench.SchemaVersion, Experiments: []*bench.ExperimentJSON{x}}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// appendDoc archives payload under a synthetic content key.
func appendDoc(t testing.TB, s *Store, id string, payload []byte) RecordMeta {
	t.Helper()
	meta, err := DescribePayload(payload)
	if err != nil {
		t.Fatalf("DescribePayload: %v", err)
	}
	meta.Key = fmt.Sprintf("key-%s-%x", id, len(payload))
	meta.Source = "test"
	got, err := s.Append(meta, payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return got
}

func TestAppendGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var payloads [][]byte
	var metas []RecordMeta
	for i := 0; i < 5; i++ {
		p := testDoc(t, "E1a", 4, 100+float64(i))
		payloads = append(payloads, p)
		metas = append(metas, appendDoc(t, s, fmt.Sprintf("E1a-%d", i), p))
	}
	for i, m := range metas {
		if m.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq = %d, want %d", i, m.Seq, i+1)
		}
		if m.UnixMs == 0 {
			t.Fatalf("record %d: UnixMs not stamped", i)
		}
		got, payload, err := s.Get(m.Seq)
		if err != nil {
			t.Fatalf("Get(%d): %v", m.Seq, err)
		}
		if !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("Get(%d): payload differs from what was appended", m.Seq)
		}
		if got.Key != m.Key || got.Experiment != "E1a" {
			t.Fatalf("Get(%d): meta = %+v", m.Seq, got)
		}
	}
	if got, ok, err := s.Lookup(metas[0].Key); !ok || err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("Lookup: appended key: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Lookup("no-such-key"); ok || err != nil {
		t.Fatalf("Lookup: phantom key: ok=%v err=%v", ok, err)
	}
	if _, _, err := s.Get(99); err == nil {
		t.Fatal("Get(99) should fail")
	}
	// A key archived twice resolves to its newest record.
	newer := testDoc(t, "E1a", 4, 999)
	if _, err := s.Append(RecordMeta{Key: metas[0].Key}, newer); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Lookup(metas[0].Key); !ok || err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("Lookup after re-archive: ok=%v err=%v, newest payload not returned", ok, err)
	}

	st := s.Stats()
	if st.Records != 6 || st.LastSeq != 6 || st.Appends != 6 || st.AppendErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReopenPreservesEverything: a clean close + reopen rebuilds the
// exact index — every payload byte-identical, the sequence counter
// continuing where it left off.
func TestReopenPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1024}) // small: force rotations
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		p := testDoc(t, "E2b", 8, 50+float64(i))
		payloads = append(payloads, p)
		appendDoc(t, s, fmt.Sprintf("E2b-%d", i), p)
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 8 || st.LastSeq != 8 || st.TornBytes != 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
	for i := 0; i < 8; i++ {
		_, payload, err := s2.Get(uint64(i + 1))
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", i+1, err)
		}
		if !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("record %d differs after reopen", i+1)
		}
	}
	m := appendDoc(t, s2, "E2b-more", testDoc(t, "E2b", 8, 99))
	if m.Seq != 9 {
		t.Fatalf("post-reopen seq = %d, want 9", m.Seq)
	}
}

func TestOpenEmptyAndClosed(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 0 || st.Segments != 1 {
		t.Fatalf("fresh stats = %+v", st)
	}
	s.Close()
	if _, err := s.Append(RecordMeta{}, []byte("x")); err == nil {
		t.Fatal("Append after Close should fail")
	}
}

// TestRecordsAndHistoryQueries: metadata filters and payload-level
// point filters both narrow correctly.
func TestRecordsAndHistoryQueries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	appendDoc(t, s, "a", testDocSeries(t, "E1a", []string{"StackTrack", "Hazard"}, []int{2, 4}, 100))
	appendDoc(t, s, "b", testDocSeries(t, "E1a", []string{"StackTrack", "Hazard"}, []int{2, 4}, 110))
	appendDoc(t, s, "c", testDocSeries(t, "E3", []string{"StackTrack"}, []int{8}, 500))

	if got := len(s.Records(Query{})); got != 3 {
		t.Fatalf("Records(all) = %d", got)
	}
	if got := len(s.Records(Query{Experiment: "E1a"})); got != 2 {
		t.Fatalf("Records(E1a) = %d", got)
	}
	if got := len(s.Records(Query{Scheme: "Hazard"})); got != 2 {
		t.Fatalf("Records(Hazard) = %d", got)
	}
	if got := len(s.Records(Query{Threads: 8})); got != 1 {
		t.Fatalf("Records(t=8) = %d", got)
	}
	if got := len(s.Records(Query{Experiment: "E1a", LastN: 1})); got != 1 {
		t.Fatalf("Records(E1a, last 1) = %d", got)
	}

	hist, err := s.History(Query{Experiment: "E1a", Scheme: "StackTrack", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("History entries = %d", len(hist))
	}
	for i, h := range hist {
		if len(h.Points) != 1 {
			t.Fatalf("entry %d: points = %d", i, len(h.Points))
		}
		p := h.Points[0]
		if p.Series != "StackTrack" || p.Threads != 4 {
			t.Fatalf("entry %d: point = %+v", i, p)
		}
	}
	if hist[0].Points[0].Throughput != 100 || hist[1].Points[0].Throughput != 110 {
		t.Fatalf("history not in seq order: %+v", hist)
	}

	trends, err := s.Trends(Query{Experiment: "E1a", Scheme: "StackTrack", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// throughput, ops, derived.aborts_per_kseg for one (series, threads).
	if len(trends) != 3 {
		t.Fatalf("trend series = %d: %+v", len(trends), trends)
	}
	for _, tr := range trends {
		if len(tr.Points) != 2 {
			t.Fatalf("%s: points = %d", tr.Metric, len(tr.Points))
		}
	}
}

func TestDescribePayload(t *testing.T) {
	p := testDocSeries(t, "E2b", []string{"Hazard", "StackTrack"}, []int{4, 2}, 77)
	meta, err := DescribePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Experiment != "E2b" || meta.Schema != bench.SchemaVersion {
		t.Fatalf("meta = %+v", meta)
	}
	if len(meta.Schemes) != 2 || meta.Schemes[0] != "Hazard" || meta.Schemes[1] != "StackTrack" {
		t.Fatalf("schemes = %v", meta.Schemes)
	}
	if len(meta.Threads) != 2 || meta.Threads[0] != 2 || meta.Threads[1] != 4 {
		t.Fatalf("threads = %v", meta.Threads)
	}
	if _, err := DescribePayload([]byte("not json")); err == nil {
		t.Fatal("junk should not describe")
	}
	if _, err := DescribePayload([]byte(`{"schema":1,"experiments":[]}`)); err == nil {
		t.Fatal("empty document should not describe")
	}
}

// TestOpenCleansTemporaries: a crash before the compaction rename
// leaves a *.tmp file; open deletes it.
func TestOpenCleansTemporaries(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "seg-00000001.log.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("compaction temporary survived open")
	}
}
